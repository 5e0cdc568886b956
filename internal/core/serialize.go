package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// Serialization lets a constructed H² matrix be persisted and reloaded —
// construction is the expensive phase (paper §I-A), so saving the
// generators extends the amortization story across processes. The format
// stores the tree, permutation, per-node generators, skeleton indices, and
// sampling hierarchy; stored coupling/nearfield blocks (normal mode) are
// re-assembled from the kernel at load time, since they are pure kernel
// submatrices.

// serialMagic identifies the file format; serialVersion is bumped on any
// incompatible change, and only the current version is readable: a stream
// carrying any other version word is rejected with an error naming it. The
// body holds the build configuration (StorageBudget, RelTol and the
// a-posteriori error estimate included), the tree, the generators, the
// sampling hierarchy and a stored-block section for kernel-less matrices
// (entry oracles, internal/oracle: their coupling/nearfield blocks are data
// the load side cannot re-derive, so they travel verbatim). An integrity
// footer (magic + CRC32-IEEE of every preceding byte) closes every stream,
// and every read verifies it, so spill rehydration and cluster replication
// transfers detect torn or corrupted payloads instead of mis-deserializing.
const (
	serialMagic       = "H2DS"
	serialFooterMagic = "H2CK"
	serialVersion     = uint32(5)
)

// crcWriter tees everything written through it into a running CRC32-IEEE.
// It sits between the buffered serializer and the destination so the footer
// checksum covers the exact bytes that reach the stream.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader mirrors crcWriter on the load side: every body byte the
// deserializer consumes updates the running checksum. The footer itself is
// read from the underlying buffered reader, bypassing the checksum.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

type serialWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (s *serialWriter) write(v any) {
	if s.err != nil {
		return
	}
	s.err = binary.Write(s.w, binary.LittleEndian, v)
	if s.err == nil {
		s.n += int64(binary.Size(v))
	}
}

func (s *serialWriter) writeI64(v int) { s.write(int64(v)) }

func (s *serialWriter) writeString(v string) {
	s.writeI64(len(v))
	if s.err != nil {
		return
	}
	var n int
	n, s.err = s.w.WriteString(v)
	s.n += int64(n)
}

func (s *serialWriter) writeIntSlice(v []int) {
	s.writeI64(len(v))
	for _, x := range v {
		s.writeI64(x)
	}
}

func (s *serialWriter) writeF64Slice(v []float64) {
	s.writeI64(len(v))
	if s.err != nil || len(v) == 0 {
		return
	}
	s.write(v)
}

func (s *serialWriter) writeDense(d *mat.Dense) {
	if d == nil {
		s.writeI64(-1)
		return
	}
	s.writeI64(d.Rows)
	s.writeI64(d.Cols)
	s.writeF64Slice(d.Data)
}

type serialReader struct {
	// r delivers body bytes through the checksum; br is the underlying
	// buffered reader the footer is read from directly.
	r   io.Reader
	br  *bufio.Reader
	crc *crcReader
	err error
}

func newSerialReader(r io.Reader) *serialReader {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	return &serialReader{r: cr, br: br, crc: cr}
}

// verifyFooter consumes the integrity footer and compares it with the
// checksum accumulated over every body byte read so far.
func (s *serialReader) verifyFooter() error {
	if s.err != nil {
		return s.err
	}
	sum := s.crc.crc
	var foot [8]byte
	if _, err := io.ReadFull(s.br, foot[:]); err != nil {
		return fmt.Errorf("core: truncated stream: missing checksum footer: %w", err)
	}
	if string(foot[:4]) != serialFooterMagic {
		return fmt.Errorf("core: corrupt stream: bad checksum footer magic %q", foot[:4])
	}
	if stored := binary.LittleEndian.Uint32(foot[4:]); stored != sum {
		return fmt.Errorf("core: corrupt stream: checksum mismatch (stored %08x computed %08x)", stored, sum)
	}
	return nil
}

func (s *serialReader) read(v any) {
	if s.err != nil {
		return
	}
	s.err = binary.Read(s.r, binary.LittleEndian, v)
}

func (s *serialReader) readI64() int {
	var v int64
	s.read(&v)
	return int(v)
}

// maxSliceLen guards against corrupt headers allocating absurd amounts.
const maxSliceLen = 1 << 33

func (s *serialReader) checkLen(n int) bool {
	if s.err != nil {
		return false
	}
	if n < 0 || int64(n) > maxSliceLen {
		s.err = fmt.Errorf("core: corrupt stream (length %d)", n)
		return false
	}
	return true
}

func (s *serialReader) readString() string {
	n := s.readI64()
	if !s.checkLen(n) {
		return ""
	}
	buf := make([]byte, n)
	if s.err == nil {
		_, s.err = io.ReadFull(s.r, buf)
	}
	return string(buf)
}

func (s *serialReader) readIntSlice() []int {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = s.readI64()
	}
	return v
}

func (s *serialReader) readF64Slice() []float64 {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	v := make([]float64, n)
	if n > 0 {
		s.read(v)
	}
	return v
}

func (s *serialReader) readDense() *mat.Dense {
	rows := s.readI64()
	if rows == -1 {
		return nil
	}
	cols := s.readI64()
	data := s.readF64Slice()
	if s.err != nil {
		return nil
	}
	if len(data) != rows*cols {
		s.err = fmt.Errorf("core: corrupt dense block %dx%d with %d values", rows, cols, len(data))
		return nil
	}
	return mat.NewDenseData(rows, cols, data)
}

// writeBlockStore serializes a frozen store's compact CSR form: the index
// arrays, per-block shapes, and the contiguous payload slab. Only frozen
// stores are serialized (construction completes before WriteTo).
func writeBlockStore(s *serialWriter, bs *BlockStore) {
	if bs == nil || !bs.frozen.Load() || bs.rowPtr == nil {
		s.write(false)
		return
	}
	s.write(true)
	s.write(bs.directed)
	s.writeI64(len(bs.rowPtr))
	for _, v := range bs.rowPtr {
		s.writeI64(int(v))
	}
	s.writeI64(len(bs.hdr))
	for k := range bs.hdr {
		s.writeI64(int(bs.colIdx[k]))
		s.writeI64(bs.hdr[k].Rows)
		s.writeI64(bs.hdr[k].Cols)
	}
	s.writeF64Slice(bs.slab)
}

// readBlockStore reconstructs a frozen store from writeBlockStore's layout,
// re-aliasing each block header into the single payload slab exactly as
// Freeze's compaction does.
func readBlockStore(s *serialReader) *BlockStore {
	var present bool
	s.read(&present)
	if s.err != nil || !present {
		return nil
	}
	bs := &BlockStore{}
	s.read(&bs.directed)
	nRows := s.readI64()
	if !s.checkLen(nRows) {
		return nil
	}
	bs.rowPtr = make([]int32, nRows)
	for i := range bs.rowPtr {
		bs.rowPtr[i] = int32(s.readI64())
	}
	nBlocks := s.readI64()
	if !s.checkLen(nBlocks) {
		return nil
	}
	bs.colIdx = make([]int32, nBlocks)
	bs.hdr = make([]mat.Dense, nBlocks)
	var need int64
	var maxBlk int64
	for k := 0; k < nBlocks; k++ {
		bs.colIdx[k] = int32(s.readI64())
		rows, cols := s.readI64(), s.readI64()
		if s.err != nil {
			return nil
		}
		if rows < 0 || cols < 0 || int64(rows)*int64(cols) > maxSliceLen {
			s.err = fmt.Errorf("core: corrupt stored block %dx%d", rows, cols)
			return nil
		}
		bs.hdr[k] = mat.Dense{Rows: rows, Cols: cols}
		need += int64(rows) * int64(cols)
		if bb := int64(rows) * int64(cols) * 8; bb > maxBlk {
			maxBlk = bb
		}
	}
	bs.slab = s.readF64Slice()
	if s.err != nil {
		return nil
	}
	if int64(len(bs.slab)) != need || (nRows == 0 && nBlocks > 0) ||
		(nRows > 0 && int(bs.rowPtr[nRows-1]) != nBlocks) {
		s.err = fmt.Errorf("core: corrupt block store section (%d blocks, slab %d, need %d)", nBlocks, len(bs.slab), need)
		return nil
	}
	var off int64
	for k := 0; k < nBlocks; k++ {
		sz := int64(bs.hdr[k].Rows) * int64(bs.hdr[k].Cols)
		bs.hdr[k].Data = bs.slab[off : off+sz]
		off += sz
	}
	bs.frozenBytes = need*8 + int64(len(bs.hdr))*40 + int64(len(bs.rowPtr)+len(bs.colIdx))*4
	bs.frozenMaxBlk = maxBlk
	bs.frozen.Store(true)
	return bs
}

// WriteTo serializes the matrix generators (not the kernel, which is code).
// Kernel-less matrices (built through an entry oracle; Name() == "") also
// carry their stored coupling/nearfield blocks, since the load side has no
// kernel to re-assemble them from; they must be in Normal mode — the only
// mode whose apply never evaluates fresh entries.
// It implements io.WriterTo.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	kernelLess := m.Kern.Name() == ""
	if kernelLess && (m.Cfg.Mode != Normal || m.coup == nil || m.near == nil) {
		return 0, fmt.Errorf("core: kernel-less matrix must be in normal mode with stored blocks to serialize (mode %v)", m.Cfg.Mode)
	}
	cw := &crcWriter{w: w}
	s := &serialWriter{w: bufio.NewWriter(cw)}
	s.writeString(serialMagic)
	s.write(serialVersion)
	s.writeString(m.Kern.Name())

	// Configuration subset needed to reconstruct behavior.
	s.write(uint8(m.Cfg.Kind))
	s.write(uint8(m.Cfg.Mode))
	s.write(m.Cfg.Tol)
	s.writeI64(m.Cfg.LeafSize)
	s.write(m.Cfg.Eta)
	s.writeI64(m.Cfg.SampleBudget)
	s.writeI64(m.Cfg.P)
	s.write(m.Cfg.StorageBudget)
	s.write(m.Cfg.RelTol)
	s.write(m.stats.EstRelErr)
	s.write(m.sharedBasis)
	s.writeI64(m.N)
	s.writeI64(m.Dim)

	// Tree.
	t := m.Tree
	s.writeF64Slice(t.Points.Coords)
	s.writeIntSlice(t.Perm)
	s.writeI64(t.LeafSize)
	s.write(t.Eta)
	s.writeI64(len(t.Nodes))
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		s.writeI64(nd.Parent)
		s.writeI64(nd.Level)
		s.writeI64(nd.Start)
		s.writeI64(nd.End)
		s.write(nd.IsLeaf)
		s.writeIntSlice(nd.Children)
		s.writeIntSlice(nd.Interaction)
		s.writeIntSlice(nd.Near)
		s.writeF64Slice(nd.Box.Min)
		s.writeF64Slice(nd.Box.Max)
	}

	// Generators.
	for id := range t.Nodes {
		s.writeI64(m.ranks[id])
		s.writeIntSlice(m.skel[id])
		s.writeDense(m.u[id])
		s.writeDense(m.trans[id])
		if !m.sharedBasis {
			s.writeI64(m.colRanks[id])
			s.writeIntSlice(m.colSkel[id])
			s.writeDense(m.v[id])
			s.writeDense(m.wTrans[id])
		}
	}

	// Sampling hierarchy (data-driven only).
	if m.hier != nil {
		s.write(true)
		for id := range t.Nodes {
			s.writeIntSlice(m.hier.XStar[id])
			s.writeIntSlice(m.hier.YStar[id])
		}
	} else {
		s.write(false)
	}

	// Kernel-less matrices ship their frozen block stores verbatim — the
	// payload is oracle data the reader cannot recompute, and shipping the
	// exact slabs makes a save/load round trip (and therefore every cluster
	// replica) bitwise-identical in apply.
	if kernelLess {
		s.write(uint8(1))
		s.write(m.Kern.Symmetric())
		writeBlockStore(s, m.coup)
		writeBlockStore(s, m.near)
	} else {
		s.write(uint8(0))
	}

	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.err == nil {
		// The footer goes to the raw destination: the checksum covers every
		// byte before it, and the footer itself stays outside the sum.
		var foot [8]byte
		copy(foot[:4], serialFooterMagic)
		binary.LittleEndian.PutUint32(foot[4:], cw.crc)
		var n int
		n, s.err = w.Write(foot[:])
		s.n += int64(n)
	}
	return s.n, s.err
}

// readHeader consumes the magic, version, and recorded kernel name and
// returns the kernel name. Any version other than serialVersion is an error.
func readHeader(s *serialReader) (string, error) {
	if magic := s.readString(); s.err == nil && magic != serialMagic {
		return "", fmt.Errorf("core: not an h2ds stream (magic %q)", magic)
	}
	var version uint32
	s.read(&version)
	if s.err == nil && version != serialVersion {
		return "", fmt.Errorf("core: unsupported stream version %d (only version %d is readable; re-create the matrix)", version, serialVersion)
	}
	kname := s.readString()
	return kname, s.err
}

// Read deserializes a matrix written by WriteTo. The kernel function is not
// stored (it is code); the caller supplies it and its Name must match the
// one recorded at save time. For normal memory mode the coupling and
// nearfield blocks are re-assembled from the kernel (they are kernel
// submatrices, so this is exact).
func Read(r io.Reader, k kernel.Pairwise) (*Matrix, error) {
	s := newSerialReader(r)
	kname, err := readHeader(s)
	if err != nil {
		return nil, err
	}
	if kname != k.Name() {
		return nil, fmt.Errorf("core: stream was built with kernel %q, got %q", kname, k.Name())
	}
	return readBody(s, k)
}

// ReadAny deserializes a matrix written by WriteTo, resolving the kernel
// from the name recorded in the stream via kernel.ByName. An empty kernel
// name marks a kernel-less stream (entry-oracle build): no lookup happens,
// the stored blocks are taken from the stream, and the loaded matrix gets a
// placeholder kernel that refuses fresh evaluations. Streams built with a
// named kernel outside the name registry (custom or parameterized kernels)
// fail with the registry's unknown-kernel error; use Read with the explicit
// kernel for those.
func ReadAny(r io.Reader) (*Matrix, error) {
	s := newSerialReader(r)
	kname, err := readHeader(s)
	if err != nil {
		return nil, err
	}
	var k kernel.Pairwise
	if kname != "" {
		k, err = kernel.ByName(kname)
		if err != nil {
			return nil, fmt.Errorf("core: cannot resolve stream kernel: %w", err)
		}
	}
	return readBody(s, k)
}

// readBody deserializes everything after the header under the given kernel
// and verifies the integrity footer.
func readBody(s *serialReader, k kernel.Pairwise) (*Matrix, error) {
	m := &Matrix{Kern: k}
	var kind, mode uint8
	s.read(&kind)
	s.read(&mode)
	m.Cfg.Kind = BasisKind(kind)
	m.Cfg.Mode = MemoryMode(mode)
	s.read(&m.Cfg.Tol)
	m.Cfg.LeafSize = s.readI64()
	s.read(&m.Cfg.Eta)
	m.Cfg.SampleBudget = s.readI64()
	m.Cfg.P = s.readI64()
	s.read(&m.Cfg.StorageBudget)
	s.read(&m.Cfg.RelTol)
	s.read(&m.stats.EstRelErr)
	m.stats.RelTol = m.Cfg.RelTol
	s.read(&m.sharedBasis)
	m.N = s.readI64()
	m.Dim = s.readI64()
	if s.err != nil {
		return nil, s.err
	}
	if m.N <= 0 || m.Dim <= 0 || m.N > maxSliceLen || m.Dim > 64 {
		return nil, fmt.Errorf("core: corrupt header n=%d dim=%d", m.N, m.Dim)
	}

	// Tree.
	t := &tree.Tree{}
	coords := s.readF64Slice()
	t.Points = &pointset.Points{Dim: m.Dim, Coords: coords}
	t.Perm = s.readIntSlice()
	t.LeafSize = s.readI64()
	s.read(&t.Eta)
	nNodes := s.readI64()
	if s.err != nil {
		return nil, s.err
	}
	if !s.checkLen(nNodes) || len(coords) != m.N*m.Dim || len(t.Perm) != m.N {
		return nil, fmt.Errorf("core: corrupt tree section")
	}
	t.InvPerm = make([]int, m.N)
	for kk, orig := range t.Perm {
		if orig < 0 || orig >= m.N {
			return nil, fmt.Errorf("core: corrupt permutation entry %d", orig)
		}
		t.InvPerm[orig] = kk
	}
	t.Nodes = make([]tree.Node, nNodes)
	for i := 0; i < nNodes; i++ {
		nd := &t.Nodes[i]
		nd.ID = i
		nd.Parent = s.readI64()
		nd.Level = s.readI64()
		nd.Start = s.readI64()
		nd.End = s.readI64()
		s.read(&nd.IsLeaf)
		nd.Children = s.readIntSlice()
		nd.Interaction = s.readIntSlice()
		nd.Near = s.readIntSlice()
		nd.Box.Min = s.readF64Slice()
		nd.Box.Max = s.readF64Slice()
		if s.err != nil {
			return nil, s.err
		}
		for len(t.Levels) <= nd.Level {
			t.Levels = append(t.Levels, nil)
		}
		t.Levels[nd.Level] = append(t.Levels[nd.Level], i)
		if nd.IsLeaf {
			t.Leaves = append(t.Leaves, i)
		}
	}
	m.Tree = t

	// Generators.
	m.u = make([]*mat.Dense, nNodes)
	m.trans = make([]*mat.Dense, nNodes)
	m.ranks = make([]int, nNodes)
	m.skel = make([][]int, nNodes)
	m.skelPts = make([]*pointset.Points, nNodes)
	if !m.sharedBasis {
		m.v = make([]*mat.Dense, nNodes)
		m.wTrans = make([]*mat.Dense, nNodes)
		m.colRanks = make([]int, nNodes)
		m.colSkel = make([][]int, nNodes)
	}
	for id := 0; id < nNodes; id++ {
		m.ranks[id] = s.readI64()
		m.skel[id] = s.readIntSlice()
		m.u[id] = s.readDense()
		m.trans[id] = s.readDense()
		if !m.sharedBasis {
			m.colRanks[id] = s.readI64()
			m.colSkel[id] = s.readIntSlice()
			m.v[id] = s.readDense()
			m.wTrans[id] = s.readDense()
		}
		if s.err != nil {
			return nil, s.err
		}
	}

	// Sampling hierarchy.
	var hasHier bool
	s.read(&hasHier)
	if hasHier {
		m.hier = &sample.Hierarchy{XStar: make([][]int, nNodes), YStar: make([][]int, nNodes)}
		for id := 0; id < nNodes; id++ {
			m.hier.XStar[id] = s.readIntSlice()
			m.hier.YStar[id] = s.readIntSlice()
		}
	}
	if s.err != nil {
		return nil, s.err
	}

	// Stored-block section (kernel-less streams only). The blocks arrive
	// verbatim, so no kernel is needed to serve the matrix; a loaded
	// kernel-less matrix gets a placeholder kernel that refuses fresh
	// evaluations but answers Symmetric for the apply's triangular logic.
	blocksFromStream := false
	var hasBlocks uint8
	s.read(&hasBlocks)
	if hasBlocks == 1 {
		var sym bool
		s.read(&sym)
		coup := readBlockStore(s)
		near := readBlockStore(s)
		if s.err != nil {
			return nil, s.err
		}
		if coup == nil || near == nil {
			return nil, fmt.Errorf("core: kernel-less stream missing stored blocks")
		}
		m.coup, m.near = coup, near
		blocksFromStream = true
		if m.Kern == nil {
			m.Kern = storedOnlyKernel{sym: sym}
		}
	}
	if m.Kern == nil {
		return nil, fmt.Errorf("core: stream names no kernel and carries no stored blocks")
	}

	if err := s.verifyFooter(); err != nil {
		return nil, err
	}

	// Rebuild derived state: identity index, skeleton point sets, grids.
	m.allIdx = make([]int, m.N)
	for i := range m.allIdx {
		m.allIdx[i] = i
	}
	if m.Cfg.Kind == Interpolation {
		for id := range t.Nodes {
			m.skelPts[id] = interp.NewGrid(t.Nodes[id].Box, m.Cfg.P).Points()
		}
	} else {
		for id := range t.Nodes {
			m.skelPts[id] = t.Points
		}
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	if (m.Cfg.Mode == Normal || m.Cfg.Mode == Hybrid) && !blocksFromStream {
		// Reassemble the stored blocks on a transient build pool, exactly as
		// Build does. Hybrid selection is deterministic, so a round-trip
		// stores the identical block subset. Kernel-less streams skip this:
		// their blocks came off the wire verbatim above.
		m.buildPool = par.NewPool(m.Cfg.Workers)
		if m.Cfg.Mode == Normal {
			m.storeBlocks()
		} else {
			m.storeBlocksHybrid(m.Cfg.StorageBudget)
		}
		m.buildPool.Close()
		m.buildPool = nil
	}
	m.finishStats()
	return m, nil
}

// validateLoaded sanity-checks cross-references after deserialization so a
// corrupt stream fails loudly instead of panicking later.
func (m *Matrix) validateLoaded() error {
	if v := m.Cfg.RelTol; math.IsNaN(v) || v < 0 || v >= 1 {
		return fmt.Errorf("core: corrupt reltol %g", v)
	}
	nNodes := len(m.Tree.Nodes)
	for id := 0; id < nNodes; id++ {
		nd := &m.Tree.Nodes[id]
		if nd.Start < 0 || nd.End > m.N || nd.Start > nd.End {
			return fmt.Errorf("core: corrupt node %d range [%d,%d)", id, nd.Start, nd.End)
		}
		for _, c := range nd.Children {
			if c < 0 || c >= nNodes {
				return fmt.Errorf("core: corrupt child id %d", c)
			}
		}
		for _, j := range append(append([]int(nil), nd.Interaction...), nd.Near...) {
			if j < 0 || j >= nNodes {
				return fmt.Errorf("core: corrupt list entry %d at node %d", j, id)
			}
		}
		limit := m.skelPts[id].Len()
		for _, p := range m.skel[id] {
			if p < 0 || p >= limit {
				return fmt.Errorf("core: corrupt skeleton index %d at node %d", p, id)
			}
		}
		if len(m.skel[id]) != m.ranks[id] {
			return fmt.Errorf("core: node %d skeleton/rank mismatch", id)
		}
		if v := m.Cfg.Tol; math.IsNaN(v) || v <= 0 {
			return fmt.Errorf("core: corrupt tolerance %g", v)
		}
	}
	return m.validateLists()
}

// validateLists checks the block lists the apply trusts: every leaf's Near
// list is strictly ascending, contains the leaf, names only leaves, and is
// mirrored (j ∈ Near(i) ⇔ i ∈ Near(j)); internal nodes carry no Near list;
// and interaction lists are mirrored (the transpose coupling and the
// nearfield pair tasks both rely on that symmetry). Entries are already
// known to be in range.
func (m *Matrix) validateLists() error {
	nodes := m.Tree.Nodes
	for id := range nodes {
		nd := &nodes[id]
		if !nd.IsLeaf {
			if len(nd.Near) > 0 {
				return fmt.Errorf("core: corrupt near list on internal node %d", id)
			}
			continue
		}
		self := false
		for k, j := range nd.Near {
			if k > 0 && j <= nd.Near[k-1] {
				return fmt.Errorf("core: corrupt near list at node %d: not strictly ascending", id)
			}
			if !nodes[j].IsLeaf {
				return fmt.Errorf("core: corrupt near list at node %d: %d is not a leaf", id, j)
			}
			if _, ok := slices.BinarySearch(nodes[j].Near, id); !ok {
				return fmt.Errorf("core: corrupt near list at node %d: %d lists no reverse entry", id, j)
			}
			self = self || j == id
		}
		if !self {
			return fmt.Errorf("core: corrupt near list at node %d: leaf missing from its own list", id)
		}
	}
	inIL := make(map[[2]int]bool)
	for id := range nodes {
		for _, j := range nodes[id].Interaction {
			inIL[[2]int{id, j}] = true
		}
	}
	for id := range nodes {
		for _, j := range nodes[id].Interaction {
			if !inIL[[2]int{j, id}] {
				return fmt.Errorf("core: corrupt interaction list: %d lists %d but not vice versa", id, j)
			}
		}
	}
	return nil
}
