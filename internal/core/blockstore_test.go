package core

import (
	"math"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// blockKey identifies a block of a seedStore by its node-id pair.
type blockKey struct{ I, J int }

// seedStore is the map-backed build-phase store the CSR layout replaced:
// blocks are Put concurrently, one allocation each, and freeze lays them out
// through Preallocate. It is the seed oracle of the store tests and of
// seedPaths.
type seedStore struct {
	mu       sync.Mutex
	directed bool
	blocks   map[blockKey]*mat.Dense
}

func newSeedStore(directed bool) *seedStore {
	return &seedStore{directed: directed, blocks: make(map[blockKey]*mat.Dense)}
}

// Put stores b under (i, j); a triangular store requires i <= j.
func (s *seedStore) Put(i, j int, b *mat.Dense) {
	if !s.directed && i > j {
		panic("core: seedStore.Put requires i <= j (symmetric storage)")
	}
	s.mu.Lock()
	s.blocks[blockKey{i, j}] = b
	s.mu.Unlock()
}

// freeze copies every block into a fresh BlockStore laid out by
// Preallocate, allocating each row's payload through allocRow as
// construction does.
func (s *seedStore) freeze() *BlockStore {
	keys := make([]blockKey, 0, len(s.blocks))
	for k := range s.blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].I != keys[b].I {
			return keys[a].I < keys[b].I
		}
		return keys[a].J < keys[b].J
	})
	specs := make([]PutSpec, len(keys))
	for n, k := range keys {
		b := s.blocks[k]
		specs[n] = PutSpec{I: k.I, J: k.J, Rows: b.Rows, Cols: b.Cols}
	}
	bs := &BlockStore{directed: s.directed}
	bs.Preallocate(specs)
	for i := range bs.numRows() {
		hdr, js := bs.allocRow(i)
		for k, j := range js {
			copy(hdr[k].Data, s.blocks[blockKey{i, int(j)}].Data)
		}
	}
	return bs
}

// fillRows allocates every row of a laid-out store of 1-row blocks from
// the given number of goroutines, each claiming every workers-th row, and
// sets block (i, j)'s payload to i, -i, i, … as the parallel construction
// assembles rows.
func fillRows(s *BlockStore, rows []int, workers int) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(rows); n += workers {
				i := rows[n]
				hdr, _ := s.allocRow(i)
				for k := range hdr {
					for e := range hdr[k].Data {
						hdr[k].Data[e] = float64(i) * float64(1-2*(e%2))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// storeOf lays out a store holding exactly the given blocks.
func storeOf(directed bool, blocks map[blockKey]*mat.Dense) *BlockStore {
	s := newSeedStore(directed)
	for k, b := range blocks {
		s.Put(k.I, k.J, b)
	}
	return s.freeze()
}

// applyStored adds block (i, j) times q into g the way the vector sweeps
// do: through the stored key, forward or transposed. It reports whether
// the block was stored.
func applyStored(s *BlockStore, g []float64, i, j int, q []float64) bool {
	a, b, trans := s.key(i, j)
	blk := s.Get(a, b)
	switch {
	case blk == nil:
		return false
	case trans:
		mat.MulTVecAdd(g, blk, q)
	default:
		mat.MulVecAdd(g, blk, q)
	}
	return true
}

// applyStoredBatch is applyStored for a column-major panel of right-hand
// sides (one per row of q and g), one column at a time as the sweeps run it.
func applyStoredBatch(s *BlockStore, g *mat.Dense, i, j int, q *mat.Dense) bool {
	stored := false
	for t := range q.Rows {
		stored = applyStored(s, g.Row(t), i, j, q.Row(t))
	}
	return stored
}

func TestBlockStorePutGet(t *testing.T) {
	b1 := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := storeOf(false, map[blockKey]*mat.Dense{{1, 5}: b1})
	if got := s.Get(1, 5); got == nil || !got.Equal(b1, 0) {
		t.Fatal("Get did not return stored block")
	}
	if s.Get(5, 1) != nil {
		t.Fatal("reversed key must miss (caller handles transpose)")
	}
	if s.Get(2, 3) != nil {
		t.Fatal("missing key must return nil")
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d", s.Len())
	}
}

func TestBlockStorePutOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for i > j")
		}
	}()
	(&BlockStore{}).Preallocate([]PutSpec{{I: 3, J: 1, Rows: 1, Cols: 1}})
}

func TestBlockStoreApplyDirectAndTransposed(t *testing.T) {
	b := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := storeOf(false, map[blockKey]*mat.Dense{{1, 5}: b})
	q := []float64{1, -1, 2}
	g := make([]float64, 2)
	if !applyStored(s, g, 1, 5, q) {
		t.Fatal("apply missed stored block")
	}
	if g[0] != 1*1-2+3*2 || g[1] != 4-5+6*2 {
		t.Fatalf("direct apply wrong: %v", g)
	}
	// Transposed: B_{5,1} = Bᵀ.
	q2 := []float64{1, 1}
	g2 := make([]float64, 3)
	if !applyStored(s, g2, 5, 1, q2) {
		t.Fatal("transposed apply missed")
	}
	want := []float64{5, 7, 9}
	for i := range want {
		if math.Abs(g2[i]-want[i]) > 1e-15 {
			t.Fatalf("transposed apply wrong: %v", g2)
		}
	}
	// Missing block reports false and leaves g untouched.
	g3 := []float64{7}
	if applyStored(s, g3, 9, 9, []float64{1}) {
		t.Fatal("apply on missing block must return false")
	}
	if g3[0] != 7 {
		t.Fatal("missing apply must not modify g")
	}
}

// TestBlockStoreConcurrentPut allocates and fills a laid-out store's rows
// from eight goroutines, as the parallel construction does: the rows are
// disjoint, so every block must hold exactly its writer's payload.
func TestBlockStoreConcurrentPut(t *testing.T) {
	specs := make([]PutSpec, 400)
	rows := make([]int, 400)
	for i := range specs {
		specs[i] = PutSpec{I: i, J: i + 1, Rows: 1, Cols: 2}
		rows[i] = i
	}
	s := &BlockStore{}
	s.Preallocate(specs)
	fillRows(s, rows, 8)
	if s.Len() != 400 {
		t.Fatalf("Len %d want 400", s.Len())
	}
	for i := 0; i < 400; i++ {
		if b := s.Get(i, i+1); b == nil || b.Data[0] != float64(i) || b.Data[1] != -float64(i) {
			t.Fatalf("lost block (%d,%d)", i, i+1)
		}
	}
}

// TestBlockStoreConcurrentPutGet overlaps readers of the index with writers
// allocating and filling other rows — construction and lookups share no
// memory but the rows each writer owns; run with -race to verify.
func TestBlockStoreConcurrentPutGet(t *testing.T) {
	const writers, perWriter = 4, 100
	const n = 2 * writers * perWriter
	specs := make([]PutSpec, n)
	var first, second []int
	for i := range specs {
		specs[i] = PutSpec{I: i, J: i + 1, Rows: 1, Cols: 1}
		if i < n/2 {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	s := &BlockStore{}
	s.Preallocate(specs)
	fillRows(s, second, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fillRows(s, first, writers)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := make([]float64, 1)
			for k := 0; k < 2000; k++ {
				i := n/2 + k%(n/2)
				if b := s.Get(i, i+1); b == nil || b.Data[0] != float64(i) {
					t.Errorf("block (%d,%d) missing or has wrong payload", i, i+1)
					return
				}
				applyStored(s, g, i, i+1, []float64{1})
				_ = s.Len()
				_ = s.Bytes()
				_ = s.MaxBlockBytes()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if s.Get(i, i+1).Data[0] != float64(i) {
			t.Fatalf("block (%d,%d) has wrong payload", i, i+1)
		}
	}
}

// TestBlockStoreFreeze checks that a laid-out store is final: its blocks
// read back, and a second layout panics.
func TestBlockStoreFreeze(t *testing.T) {
	s := storeOf(false, map[blockKey]*mat.Dense{{0, 1}: mat.NewDenseData(1, 1, []float64{2})})
	if s.Get(0, 1) == nil || s.Len() != 1 {
		t.Fatal("laid-out reads must see stored blocks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a second Preallocate")
		}
	}()
	s.Preallocate([]PutSpec{{I: 0, J: 2, Rows: 1, Cols: 1}})
}

func TestBlockStoreApplyBatch(t *testing.T) {
	b := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := storeOf(false, map[blockKey]*mat.Dense{{1, 5}: b})
	q := mat.NewDenseData(3, 2, []float64{1, 0, -1, 1, 2, -2})
	g := mat.NewDense(2, 2)
	if !applyStoredBatch(s, g, 1, 5, q.T()) {
		t.Fatal("batch apply missed stored block")
	}
	want := mat.Mul(b, q).T()
	for i := range want.Data {
		if math.Abs(g.Data[i]-want.Data[i]) > 1e-15 {
			t.Fatalf("batch apply wrong: %v want %v", g.Data, want.Data)
		}
	}
	// Transposed direction.
	q2 := mat.NewDenseData(2, 2, []float64{1, -1, 1, 2})
	g2 := mat.NewDense(2, 3)
	if !applyStoredBatch(s, g2, 5, 1, q2.T()) {
		t.Fatal("transposed batch apply missed")
	}
	wantT := mat.Mul(b.T(), q2).T()
	for i := range wantT.Data {
		if math.Abs(g2.Data[i]-wantT.Data[i]) > 1e-15 {
			t.Fatalf("transposed batch apply wrong: %v want %v", g2.Data, wantT.Data)
		}
	}
	if applyStoredBatch(s, mat.NewDense(1, 2), 9, 9, mat.NewDense(1, 2)) {
		t.Fatal("batch apply on missing block must return false")
	}
}

func TestBlockStoreBytes(t *testing.T) {
	s := &BlockStore{}
	if s.Bytes() != 0 || s.MaxBlockBytes() != 0 {
		t.Fatal("empty store must report zero")
	}
	s = storeOf(false, map[blockKey]*mat.Dense{{0, 1}: mat.NewDense(10, 10), {0, 2}: mat.NewDense(5, 4)})
	if s.Bytes() < 120*8 {
		t.Fatalf("Bytes %d too small", s.Bytes())
	}
	if s.MaxBlockBytes() != 100*8 {
		t.Fatalf("MaxBlockBytes %d want %d", s.MaxBlockBytes(), 100*8)
	}
}

// checkStoreLayout fails unless s is laid out as allocRow lays it out: every
// header holds exactly Rows*Cols values, no two payloads overlap, and each
// row's blocks are one contiguous run in ascending column order.
func checkStoreLayout(t *testing.T, tag string, s *BlockStore) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	addr := func(d []float64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(d))) }
	var spans []span
	for i := range s.numRows() {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			h := &s.hdr[k]
			if len(h.Data) != h.Rows*h.Cols {
				t.Fatalf("%s: block (%d,%d) is %dx%d with %d values", tag, i, s.colIdx[k], h.Rows, h.Cols, len(h.Data))
			}
			if len(h.Data) == 0 {
				continue
			}
			if k > lo {
				p := &s.hdr[k-1]
				if s.colIdx[k] <= s.colIdx[k-1] {
					t.Fatalf("%s: row %d columns out of order at %d", tag, i, k)
				}
				if len(p.Data) > 0 && addr(p.Data)+uintptr(8*len(p.Data)) != addr(h.Data) {
					t.Fatalf("%s: row %d block %d does not follow block %d in memory", tag, i, s.colIdx[k], s.colIdx[k-1])
				}
			}
			spans = append(spans, span{addr(h.Data), addr(h.Data) + uintptr(8*len(h.Data))})
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for k := 1; k < len(spans); k++ {
		if spans[k].lo < spans[k-1].hi {
			t.Fatalf("%s: payloads overlap", tag)
		}
	}
}

// TestBlockStoreLayout checks the per-row payload layout of a Normal and a
// Hybrid build at half the Normal block footprint, and pins their byte
// accounting — each store's Bytes and MaxBlockBytes and the whole Memory()
// breakdown — to the values of the single-slab layout this one replaced:
// where the payloads live must not change what is counted.
func TestBlockStoreLayout(t *testing.T) {
	pts := pointset.Cube(2000, 3, 7)
	cfg := Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60, Workers: 2}
	norm, err := Build(pts, kernel.Coulomb{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode, cfg.StorageBudget = Hybrid, (norm.Memory().Coupling+norm.Memory().Nearfield)/2
	hyb, err := Build(pts, kernel.Coulomb{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := MemoryStats{Basis: 501632, Transfer: 715792, Skeletons: 161664, Tree: 124168, Workspace: 86224, Workers: 2}
	pins := []struct {
		tag                  string
		m                    *Matrix
		coupLen, nearLen     int
		coupMax, nearMax     int64
		coupBytes, nearBytes int64
		scratch              int64
	}{
		{"normal", norm, 755, 990, 18424, 8192, 6728692, 7773768, 0},
		{"hybrid-50", hyb, 755, 66, 18424, 7936, 6728692, 513560, 18424},
	}
	for _, p := range pins {
		checkStoreLayout(t, p.tag+" coupling", p.m.coup)
		checkStoreLayout(t, p.tag+" nearfield", p.m.near)
		c, n := p.m.coup, p.m.near
		if c.Len() != p.coupLen || c.Bytes() != p.coupBytes || c.MaxBlockBytes() != p.coupMax ||
			n.Len() != p.nearLen || n.Bytes() != p.nearBytes || n.MaxBlockBytes() != p.nearMax {
			t.Fatalf("%s: coupling %d/%d/%d nearfield %d/%d/%d, want %d/%d/%d and %d/%d/%d", p.tag,
				c.Len(), c.Bytes(), c.MaxBlockBytes(), n.Len(), n.Bytes(), n.MaxBlockBytes(),
				p.coupLen, p.coupBytes, p.coupMax, p.nearLen, p.nearBytes, p.nearMax)
		}
		want := base
		want.Coupling, want.Nearfield, want.ScratchPerWorker = p.coupBytes, p.nearBytes, p.scratch
		if got := p.m.Memory(); got != want {
			t.Fatalf("%s: Memory() %+v\nwant %+v", p.tag, got, want)
		}
	}
}
