package core

import (
	"cmp"
	"fmt"
	"slices"

	"h2ds/internal/mat"
)

// BlockStore is the paper's coupling-block container (§III-A): a sparse
// integer index ("the value of the element at (i,j) providing the linear
// index into a vector of dense matrices") plus the dense block payloads.
//
// The index is a CSR layout: a per-node offset array (rowPtr) over sorted
// column ids (colIdx) resolving each (i, j) to a block header in one
// contiguous header array. The payloads of one CSR row — every block (i, ·)
// — share one []float64 in (i, j) order, so the coupling sweep streams each
// row in apply order, and reads do no map lookups and no per-block
// pointer-chases.
//
// A triangular store (symmetric kernels) keeps only keys with i <= j: block
// (j, i) is the transpose of block (i, j), and every apply multiplies the
// stored (i, j) payload, forward or transposed (see key). A directed store
// (unsymmetric kernels) keeps every pair it is given. A store may hold any
// subset of the blocks — all of them (Normal), none (OnTheFly) or a budgeted
// selection (Hybrid); the sweeps evaluate a missing block on the fly in the
// same orientation, so the subset never changes a result.
//
// Preallocate lays out the index and the block headers once, and allocRow
// then gives each row its payload: construction calls it from the parallel
// task that assembles the row, so the zeroing and first touch of a row's
// pages run on the worker that writes them, on every worker at once. After
// construction the store is read-only and safe for concurrent use without
// locks.
type BlockStore struct {
	directed bool

	// CSR form (empty until Preallocate). The block for (i, j) is
	// hdr[blockAt(i, j)]; row i's headers hdr[rowPtr[i]:rowPtr[i+1]] alias
	// one payload (allocRow, or the stream's slab after readBlockStore).
	rowPtr []int32
	colIdx []int32
	hdr    []mat.Dense

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

// Preallocate lays out the CSR index for exactly the given blocks, sorted by
// (i, j), with one Rows x Cols header per block and no payload yet: allocRow
// allocates each row's.
//
// Must be called once, on an empty store.
func (s *BlockStore) Preallocate(specs []PutSpec) {
	if s.rowPtr != nil {
		panic("core: BlockStore.Preallocate on a non-empty store")
	}
	ord := slices.Clone(specs)
	slices.SortFunc(ord, func(a, b PutSpec) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
	maxI := -1
	for _, sp := range ord {
		if !s.directed && sp.I > sp.J {
			panic("core: BlockStore.Preallocate requires i <= j (symmetric storage)")
		}
		maxI = max(maxI, sp.I)
	}

	s.rowPtr = make([]int32, maxI+2)
	s.colIdx = make([]int32, len(ord))
	s.hdr = make([]mat.Dense, len(ord))
	for k, sp := range ord {
		s.hdr[k] = mat.Dense{Rows: sp.Rows, Cols: sp.Cols}
		s.colIdx[k] = int32(sp.J)
		s.rowPtr[sp.I+1]++
	}
	for i := 1; i < len(s.rowPtr); i++ {
		s.rowPtr[i] += s.rowPtr[i-1]
	}
	s.account()
}

// numRows returns the number of CSR rows: node ids 0 .. numRows()-1 may
// own blocks.
func (s *BlockStore) numRows() int { return max(len(s.rowPtr)-1, 0) }

// allocRow allocates one payload for all of row i's blocks, aliases their
// headers into it in (i, j) order, and returns the headers with their column
// ids. Rows are disjoint, so distinct rows may be allocated and filled in
// parallel.
func (s *BlockStore) allocRow(i int) ([]mat.Dense, []int32) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	hdr := s.hdr[lo:hi]
	n := 0
	for k := range hdr {
		n += hdr[k].Rows * hdr[k].Cols
	}
	alias(hdr, make([]float64, n))
	return hdr, s.colIdx[lo:hi]
}

// alias points each header's Data at the next Rows*Cols values of buf, in
// order.
func alias(hdr []mat.Dense, buf []float64) {
	off := 0
	for k := range hdr {
		sz := hdr[k].Rows * hdr[k].Cols
		hdr[k].Data = buf[off : off+sz : off+sz]
		off += sz
	}
}

// account memoizes the footprint from the header shapes: payload, header
// array, and index arrays.
func (s *BlockStore) account() {
	s.bytes = int64(len(s.hdr))*40 + int64(len(s.rowPtr)+len(s.colIdx))*4
	s.maxBlk = 0
	for k := range s.hdr {
		bb := int64(s.hdr[k].Rows) * int64(s.hdr[k].Cols) * 8
		s.bytes += bb
		s.maxBlk = max(s.maxBlk, bb)
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
// header aliases its row's payload.
func (s *BlockStore) Get(i, j int) *mat.Dense {
	if k := s.blockAt(i, j); k >= 0 {
		return &s.hdr[k]
	}
	return nil
}

// Len returns the number of stored blocks.
func (s *BlockStore) Len() int { return len(s.hdr) }

// Bytes returns the memory footprint: block payloads, header array, and CSR
// index.
func (s *BlockStore) Bytes() int64 { return s.bytes }

// MaxBlockBytes returns the size of the largest stored block.
func (s *BlockStore) MaxBlockBytes() int64 { return s.maxBlk }
