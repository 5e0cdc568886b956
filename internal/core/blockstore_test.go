package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"h2ds/internal/mat"
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
// Preallocate.
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
	for n, dst := range bs.Preallocate(specs) {
		copy(dst.Data, s.blocks[keys[n]].Data)
	}
	return bs
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

// applyStoredBatch is applyStored for a block of right-hand sides.
func applyStoredBatch(s *BlockStore, g *mat.Dense, i, j int, q *mat.Dense) bool {
	a, b, trans := s.key(i, j)
	blk := s.Get(a, b)
	switch {
	case blk == nil:
		return false
	case trans:
		mat.MulTAddTo(g, blk, q)
	default:
		mat.MulAddTo(g, blk, q)
	}
	return true
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

// TestBlockStoreConcurrentPut fills a laid-out store's views from eight
// goroutines, as the parallel construction does: the views are
// write-disjoint, so every block must hold exactly its writer's payload.
func TestBlockStoreConcurrentPut(t *testing.T) {
	specs := make([]PutSpec, 400)
	for i := range specs {
		specs[i] = PutSpec{I: i, J: i + 1, Rows: 1, Cols: 2}
	}
	s := &BlockStore{}
	views := s.Preallocate(specs)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := w*50 + k
				views[i].Data[0], views[i].Data[1] = float64(i), -float64(i)
			}
		}(w)
	}
	wg.Wait()
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
// filling other blocks' views — construction and lookups share no memory
// but the payloads each writer owns; run with -race to verify.
func TestBlockStoreConcurrentPutGet(t *testing.T) {
	const writers, perWriter = 4, 100
	const n = 2 * writers * perWriter
	specs := make([]PutSpec, n)
	for i := range specs {
		specs[i] = PutSpec{I: i, J: i + 1, Rows: 1, Cols: 1}
	}
	s := &BlockStore{}
	views := s.Preallocate(specs)
	for i := n / 2; i < n; i++ {
		views[i].Data[0] = float64(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				i := w*perWriter + k
				views[i].Data[0] = float64(i)
			}
		}(w)
	}
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
	if !applyStoredBatch(s, g, 1, 5, q) {
		t.Fatal("batch apply missed stored block")
	}
	want := mat.Mul(b, q)
	for i := range want.Data {
		if math.Abs(g.Data[i]-want.Data[i]) > 1e-15 {
			t.Fatalf("batch apply wrong: %v want %v", g.Data, want.Data)
		}
	}
	// Transposed direction.
	q2 := mat.NewDenseData(2, 2, []float64{1, -1, 1, 2})
	g2 := mat.NewDense(3, 2)
	if !applyStoredBatch(s, g2, 5, 1, q2) {
		t.Fatal("transposed batch apply missed")
	}
	wantT := mat.Mul(b.T(), q2)
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
