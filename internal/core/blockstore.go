package core

import (
	"fmt"
	"sort"

	"h2ds/internal/mat"
)

// BlockStore is the paper's coupling-block container (§III-A): a sparse
// integer index ("the value of the element at (i,j) providing the linear
// index into a vector of dense matrices") plus the dense block slab.
//
// The index is a CSR layout: a per-node offset array (rowPtr) over sorted
// column ids (colIdx) resolving each (i, j) to a block header in one
// contiguous header array, with every block payload in a single []float64
// slab in row-major (i, j) order. Reads do no map lookups and no per-block
// pointer-chases, and the coupling sweep streams the slab in apply order.
//
// A triangular store (symmetric kernels) keeps only keys with i <= j: block
// (j, i) is the transpose of block (i, j), and every apply multiplies the
// stored (i, j) payload, forward or transposed (see key). A directed store
// (unsymmetric kernels) keeps every pair it is given. A store may hold any
// subset of the blocks — all of them (Normal), none (OnTheFly) or a budgeted
// selection (Hybrid); the sweeps evaluate a missing block on the fly in the
// same orientation, so the subset never changes a result.
//
// Preallocate lays the store out once; the views it returns are filled
// during construction, after which the store is read-only and safe for
// concurrent use without locks.
type BlockStore struct {
	directed bool

	// CSR form (empty until Preallocate). hdr[k]'s Data aliases slab; the
	// block for (i, j) is hdr[blockAt(i, j)].
	rowPtr []int32
	colIdx []int32
	hdr    []mat.Dense
	slab   []float64

	// Byte accounting memoized at layout time (MemoryStats reads it
	// repeatedly).
	bytes  int64
	maxBlk int64
}

// newBlockStores returns an empty coupling and nearfield store pair for a
// kernel of the given symmetry: triangular stores for a symmetric kernel,
// directed ones otherwise.
func newBlockStores(sym bool) (coup, near *BlockStore) {
	return &BlockStore{directed: !sym}, &BlockStore{directed: !sym}
}

// key returns the stored key (a, b) of block (i, j) and whether block (i, j)
// is the transpose of the stored block: a triangular store keeps
// (min(i, j), max(i, j)), a directed store (i, j) itself.
func (s *BlockStore) key(i, j int) (a, b int, trans bool) {
	if s.directed || i <= j {
		return i, j, false
	}
	return j, i, true
}

// PutSpec describes one block of a Preallocate layout: its store key and
// payload shape.
type PutSpec struct {
	I, J       int
	Rows, Cols int
}

// Preallocate lays out the CSR form for exactly the given blocks and returns
// one slab-backed view per spec, parallel to specs: callers assemble each
// payload directly into its view (the views are write-disjoint, so parallel
// assembly is safe). Blocks are sorted by (i, j) in one contiguous slab.
//
// Must be called once, on an empty store.
func (s *BlockStore) Preallocate(specs []PutSpec) []*mat.Dense {
	if s.rowPtr != nil {
		panic("core: BlockStore.Preallocate on a non-empty store")
	}
	ord := make([]int, len(specs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		sa, sb := specs[ord[a]], specs[ord[b]]
		if sa.I != sb.I {
			return sa.I < sb.I
		}
		return sa.J < sb.J
	})
	maxI := -1
	var slabLen int64
	for _, sp := range specs {
		if !s.directed && sp.I > sp.J {
			panic("core: BlockStore.Preallocate requires i <= j (symmetric storage)")
		}
		if sp.I > maxI {
			maxI = sp.I
		}
		slabLen += int64(sp.Rows) * int64(sp.Cols)
	}

	s.rowPtr = make([]int32, maxI+2)
	s.colIdx = make([]int32, len(specs))
	s.hdr = make([]mat.Dense, len(specs))
	s.slab = make([]float64, slabLen)
	out := make([]*mat.Dense, len(specs))
	var off int64
	for k, oi := range ord {
		sp := specs[oi]
		sz := int64(sp.Rows) * int64(sp.Cols)
		s.hdr[k] = mat.Dense{Rows: sp.Rows, Cols: sp.Cols, Data: s.slab[off : off+sz]}
		s.colIdx[k] = int32(sp.J)
		s.rowPtr[sp.I+1]++
		out[oi] = &s.hdr[k]
		off += sz
	}
	for i := 1; i < len(s.rowPtr); i++ {
		s.rowPtr[i] += s.rowPtr[i-1]
	}
	s.account()
	return out
}

// account memoizes the footprint: slab payload, header array, and index
// arrays.
func (s *BlockStore) account() {
	s.bytes = int64(len(s.slab))*8 + int64(len(s.hdr))*40 + int64(len(s.rowPtr)+len(s.colIdx))*4
	s.maxBlk = 0
	for k := range s.hdr {
		if bb := int64(len(s.hdr[k].Data)) * 8; bb > s.maxBlk {
			s.maxBlk = bb
		}
	}
}

// blockAt resolves (i, j) in the CSR index to a header position, or -1.
// Rows are interaction/nearfield lists — a few dozen entries — so a
// branch-light binary search beats hashing without any pointer-chasing.
func (s *BlockStore) blockAt(i, j int) int {
	if i < 0 || i+1 >= len(s.rowPtr) {
		return -1
	}
	lo, hi := int(s.rowPtr[i]), int(s.rowPtr[i+1])
	jj := int32(j)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.colIdx[mid] < jj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(s.rowPtr[i+1]) && s.colIdx[lo] == jj {
		return lo
	}
	return -1
}

// checkIndex validates a deserialized CSR index over nNodes nodes: rowPtr
// starts at 0, never decreases and ends at the block count, and every row's
// column ids are strictly ascending node ids.
func (s *BlockStore) checkIndex(nNodes int) error {
	n := len(s.rowPtr)
	if n == 0 || n > nNodes+1 || s.rowPtr[0] != 0 || int(s.rowPtr[n-1]) != len(s.colIdx) {
		return fmt.Errorf("rowPtr of %d entries does not index %d blocks over %d nodes", n, len(s.colIdx), nNodes)
	}
	for i := 0; i+1 < n; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		if hi < lo || int(hi) > len(s.colIdx) {
			return fmt.Errorf("non-monotone rowPtr at row %d", i)
		}
		for k := lo; k < hi; k++ {
			if c := s.colIdx[k]; c < 0 || int(c) >= nNodes {
				return fmt.Errorf("colIdx %d out of range in row %d", c, i)
			} else if k > lo && c <= s.colIdx[k-1] {
				return fmt.Errorf("colIdx unsorted in row %d", i)
			}
		}
	}
	return nil
}

// Get returns the block stored for exactly (i, j), or nil. The returned
// header aliases the slab.
func (s *BlockStore) Get(i, j int) *mat.Dense {
	if k := s.blockAt(i, j); k >= 0 {
		return &s.hdr[k]
	}
	return nil
}

// Len returns the number of stored blocks.
func (s *BlockStore) Len() int { return len(s.hdr) }

// Bytes returns the memory footprint: slab payload, header array, and CSR
// index.
func (s *BlockStore) Bytes() int64 { return s.bytes }

// MaxBlockBytes returns the size of the largest stored block.
func (s *BlockStore) MaxBlockBytes() int64 { return s.maxBlk }
