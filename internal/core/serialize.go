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

// readChunk bounds the up-front allocation for a length read from the
// stream: slices grow by this many elements at a time as the stream
// delivers them, so a corrupt length fails at end of stream instead of
// allocating what it claims.
const readChunk = 1 << 16

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
	buf, err := io.ReadAll(io.LimitReader(s.r, int64(n)))
	if err == nil && len(buf) != n {
		err = io.ErrUnexpectedEOF
	}
	s.err = err
	return string(buf)
}

func (s *serialReader) readIntSlice() []int {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	v := make([]int, 0, min(n, readChunk))
	for len(v) < n && s.err == nil {
		v = append(v, s.readI64())
	}
	return v
}

func (s *serialReader) readF64Slice() []float64 {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	v := make([]float64, 0, min(n, readChunk))
	for len(v) < n {
		k := min(n-len(v), readChunk)
		v = slices.Grow(v, k)
		s.read(v[len(v) : len(v)+k])
		if s.err != nil {
			return nil
		}
		v = v[:len(v)+k]
	}
	return v
}

// shapeOK reports whether rows x cols is a valid payload shape no larger
// than maxSliceLen elements.
func shapeOK(rows, cols int) bool {
	return rows >= 0 && cols >= 0 && (cols == 0 || int64(rows) <= maxSliceLen/int64(cols))
}

func (s *serialReader) readDense() *mat.Dense {
	rows := s.readI64()
	if rows == -1 {
		return nil
	}
	cols := s.readI64()
	if s.err == nil && !shapeOK(rows, cols) {
		s.err = fmt.Errorf("core: corrupt dense block shape %dx%d", rows, cols)
	}
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

// writeBlockStore serializes a store's CSR form: the index arrays,
// per-block shapes, and every payload in (i, j) order as one length-prefixed
// float64 run, whatever the rows' allocation in memory.
func writeBlockStore(s *serialWriter, bs *BlockStore) {
	if bs == nil || bs.rowPtr == nil {
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
	total := 0
	for k := range bs.hdr {
		total += len(bs.hdr[k].Data)
	}
	s.writeI64(total)
	for k := range bs.hdr {
		if len(bs.hdr[k].Data) > 0 {
			s.write(bs.hdr[k].Data)
		}
	}
}

// readBlockStore reconstructs a store from writeBlockStore's layout. The
// payloads arrive as one run, so the loaded store keeps them in one slab and
// aliases every header into it in (i, j) order — rows stay contiguous, as
// allocRow lays them out. The index is checked by checkIndex and the block
// set by validateStores once the tree is known.
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
	bs.rowPtr = make([]int32, 0, min(nRows, readChunk))
	for len(bs.rowPtr) < nRows && s.err == nil {
		bs.rowPtr = append(bs.rowPtr, int32(s.readI64()))
	}
	nBlocks := s.readI64()
	if !s.checkLen(nBlocks) {
		return nil
	}
	bs.colIdx = make([]int32, 0, min(nBlocks, readChunk))
	bs.hdr = make([]mat.Dense, 0, min(nBlocks, readChunk))
	var need int64
	for len(bs.hdr) < nBlocks {
		bs.colIdx = append(bs.colIdx, int32(s.readI64()))
		rows, cols := s.readI64(), s.readI64()
		if s.err != nil {
			return nil
		}
		if !shapeOK(rows, cols) || need+int64(rows)*int64(cols) > maxSliceLen {
			s.err = fmt.Errorf("core: corrupt stored block %dx%d", rows, cols)
			return nil
		}
		bs.hdr = append(bs.hdr, mat.Dense{Rows: rows, Cols: cols})
		need += int64(rows) * int64(cols)
	}
	slab := s.readF64Slice()
	if s.err != nil {
		return nil
	}
	if int64(len(slab)) != need {
		s.err = fmt.Errorf("core: corrupt block store section (%d blocks, slab %d, need %d)", nBlocks, len(slab), need)
		return nil
	}
	alias(bs.hdr, slab)
	bs.account()
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
	if kernelLess && m.Cfg.Mode != Normal {
		return 0, fmt.Errorf("core: kernel-less matrix must be in normal mode to serialize (mode %v)", m.Cfg.Mode)
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
	s.writeI64(m.p)
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
// (nil for a kernel-less stream read by ReadAny) and verifies the integrity
// footer. The checksum only proves the bytes are the ones written, not that
// a writer was honest, so every field the apply trusts is validated too.
func readBody(s *serialReader, k kernel.Pairwise) (*Matrix, error) {
	m := &Matrix{Kern: k}
	kernelLess := k == nil || k.Name() == ""
	var kind, mode uint8
	s.read(&kind)
	s.read(&mode)
	m.Cfg.Kind = BasisKind(kind)
	m.Cfg.Mode = MemoryMode(mode)
	s.read(&m.Cfg.Tol)
	m.Cfg.LeafSize = s.readI64()
	s.read(&m.Cfg.Eta)
	m.Cfg.SampleBudget = s.readI64()
	m.p = s.readI64()
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
	switch {
	case m.Cfg.Kind != DataDriven && m.Cfg.Kind != Interpolation:
		return nil, fmt.Errorf("core: corrupt stream: unknown basis kind %d", kind)
	case m.Cfg.Mode != Normal && m.Cfg.Mode != OnTheFly && m.Cfg.Mode != Hybrid:
		return nil, fmt.Errorf("core: corrupt stream: unknown memory mode %d", mode)
	case kernelLess && m.Cfg.Mode != Normal:
		return nil, fmt.Errorf("core: corrupt stream: kernel-less stream in memory mode %v (only normal mode can serve stored-only blocks)", m.Cfg.Mode)
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
	if !s.checkLen(nNodes) || nNodes == 0 || len(coords) != m.N*m.Dim || len(t.Perm) != m.N {
		return nil, fmt.Errorf("core: corrupt tree section")
	}
	t.InvPerm = make([]int, m.N)
	for i := range t.InvPerm {
		t.InvPerm[i] = -1
	}
	for kk, orig := range t.Perm {
		if orig < 0 || orig >= m.N || t.InvPerm[orig] >= 0 {
			return nil, fmt.Errorf("core: corrupt permutation entry %d", orig)
		}
		t.InvPerm[orig] = kk
	}
	t.Nodes = make([]tree.Node, 0, min(nNodes, readChunk))
	for i := 0; i < nNodes; i++ {
		t.Nodes = append(t.Nodes, tree.Node{ID: i})
		nd := &t.Nodes[i]
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
		if nd.Level < 0 || nd.Level >= nNodes {
			return nil, fmt.Errorf("core: corrupt node %d level %d", i, nd.Level)
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

	// Stored-block section, present exactly in kernel-less streams. The
	// blocks arrive verbatim, so no kernel is needed to serve the matrix; a
	// loaded kernel-less matrix gets a placeholder kernel that refuses fresh
	// evaluations but answers Symmetric for the stores' orientation.
	var hasBlocks uint8
	s.read(&hasBlocks)
	if s.err != nil {
		return nil, s.err
	}
	if hasBlocks > 1 || (hasBlocks == 1) != kernelLess {
		return nil, fmt.Errorf("core: corrupt stream: stored-block marker %d for a stream with kernel name %q", hasBlocks, kernelName(k))
	}
	if kernelLess {
		var sym bool
		s.read(&sym)
		m.coup = readBlockStore(s)
		m.near = readBlockStore(s)
		if s.err != nil {
			return nil, s.err
		}
		if m.coup == nil || m.near == nil {
			return nil, fmt.Errorf("core: kernel-less stream missing stored blocks")
		}
		if m.Kern == nil {
			m.Kern = storedOnlyKernel{sym: sym}
		}
		if m.Kern.Symmetric() != sym {
			return nil, fmt.Errorf("core: corrupt stream: stored blocks for symmetric=%v, kernel symmetric=%v", sym, m.Kern.Symmetric())
		}
	}

	if err := s.verifyFooter(); err != nil {
		return nil, err
	}

	// Rebuild derived state: identity index, skeleton point sets, grids.
	m.allIdx = make([]int, m.N)
	for i := range m.allIdx {
		m.allIdx[i] = i
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	if kernelLess {
		if err := m.validateStores(); err != nil {
			return nil, err
		}
	} else {
		// Reassemble the stored blocks exactly as Build does. Hybrid
		// selection is deterministic, so a round trip stores the identical
		// block subset.
		pool := par.NewPool(m.Cfg.Workers)
		defer pool.Close()
		m.storeBlocks(pool, m.Cfg.blockBudget())
	}
	m.finishStats()
	return m, nil
}

// kernelName is k's name, or "" for a nil kernel.
func kernelName(k kernel.Pairwise) string {
	if k == nil {
		return ""
	}
	return k.Name()
}

// validateLoaded sanity-checks cross-references after deserialization so a
// corrupt stream fails loudly instead of panicking later: the header
// parameters, the tree's shape, every generator's shape against the ranks
// and leaf sizes, skeleton and hierarchy indices, and the block lists. It
// also builds the skeleton point sets, which need a validated grid size.
func (m *Matrix) validateLoaded() error {
	if v := m.Cfg.RelTol; math.IsNaN(v) || v < 0 || v >= 1 {
		return fmt.Errorf("core: corrupt reltol %g", v)
	}
	if v := m.Cfg.Tol; math.IsNaN(v) || v <= 0 {
		return fmt.Errorf("core: corrupt tolerance %g", v)
	}
	if m.Kern.Symmetric() && !m.sharedBasis {
		return fmt.Errorf("core: corrupt stream: symmetric kernel with separate column bases")
	}
	if err := m.validateTree(); err != nil {
		return err
	}
	nNodes := len(m.Tree.Nodes)
	if m.Cfg.Kind == Interpolation {
		// Every interpolation node has rank p^Dim; check that before
		// building the grids so a corrupt p cannot size them.
		grid := 1
		for c := 0; c < m.Dim && grid > 0; c++ {
			if m.p < 1 || grid > m.ranks[0]/m.p {
				grid = -1
			} else {
				grid *= m.p
			}
		}
		if grid != m.ranks[0] {
			return fmt.Errorf("core: corrupt interpolation order %d for rank %d", m.p, m.ranks[0])
		}
	}
	for id := 0; id < nNodes; id++ {
		nd := &m.Tree.Nodes[id]
		for _, j := range append(append([]int(nil), nd.Interaction...), nd.Near...) {
			if j < 0 || j >= nNodes {
				return fmt.Errorf("core: corrupt list entry %d at node %d", j, id)
			}
		}
		if m.Cfg.Kind == Interpolation {
			if len(nd.Box.Min) != m.Dim || len(nd.Box.Max) != m.Dim {
				return fmt.Errorf("core: corrupt bounding box at node %d", id)
			}
			m.skelPts[id] = interp.NewGrid(nd.Box, m.p).Points()
		} else {
			m.skelPts[id] = m.Tree.Points
		}
		if err := m.validateSide(id, "row", m.ranks, m.skel, m.u, m.trans); err != nil {
			return err
		}
		if !m.sharedBasis {
			if err := m.validateSide(id, "column", m.colRanks, m.colSkel, m.v, m.wTrans); err != nil {
				return err
			}
		}
		if m.hier != nil {
			for _, p := range append(append([]int(nil), m.hier.XStar[id]...), m.hier.YStar[id]...) {
				if p < 0 || p >= m.N {
					return fmt.Errorf("core: corrupt sample index %d at node %d", p, id)
				}
			}
		}
	}
	return m.validateLists()
}

// validateTree checks the tree the task graph and the permutation buffers
// trust: node 0 is the root over [0, N), every other node's parent lists it
// as a child one level up, children cover their parent's range
// contiguously in order, and exactly the childless nodes are leaves. That
// makes the parent links a tree, so the apply's task graph is acyclic.
func (m *Matrix) validateTree() error {
	nodes := m.Tree.Nodes
	if r := &nodes[0]; r.Parent != -1 || r.Level != 0 || r.Start != 0 || r.End != m.N {
		return fmt.Errorf("core: corrupt root node")
	}
	for id := range nodes {
		nd := &nodes[id]
		if id > 0 && (nd.Parent < 0 || nd.Parent >= len(nodes) || nodes[nd.Parent].Level != nd.Level-1 ||
			!slices.Contains(nodes[nd.Parent].Children, id)) {
			return fmt.Errorf("core: corrupt parent %d of node %d", nd.Parent, id)
		}
		if nd.IsLeaf != (len(nd.Children) == 0) {
			return fmt.Errorf("core: corrupt leaf flag at node %d", id)
		}
		if nd.Start < 0 || nd.End > m.N || nd.Start > nd.End {
			return fmt.Errorf("core: corrupt node %d range [%d,%d)", id, nd.Start, nd.End)
		}
		at := nd.Start
		for _, c := range nd.Children {
			if c <= 0 || c >= len(nodes) || nodes[c].Parent != id || nodes[c].Start != at {
				return fmt.Errorf("core: corrupt child id %d of node %d", c, id)
			}
			at = nodes[c].End
		}
		if !nd.IsLeaf && at != nd.End {
			return fmt.Errorf("core: corrupt node %d: children do not cover [%d,%d)", id, nd.Start, nd.End)
		}
	}
	return nil
}

// validateSide checks one side (row or column) of node id's generators:
// the skeleton matches the rank and indexes the skeleton points, a leaf's
// basis is |X_id| x rank, and an internal node's stacked transfer blocks
// are (Σ_c rank_c) x rank.
func (m *Matrix) validateSide(id int, side string, ranks []int, skel [][]int, basis, trans []*mat.Dense) error {
	nd := &m.Tree.Nodes[id]
	if len(skel[id]) != ranks[id] {
		return fmt.Errorf("core: node %d %s skeleton/rank mismatch", id, side)
	}
	limit := m.skelPts[id].Len()
	for _, p := range skel[id] {
		if p < 0 || p >= limit {
			return fmt.Errorf("core: corrupt %s skeleton index %d at node %d", side, p, id)
		}
	}
	g, rows := basis[id], nd.Size()
	if !nd.IsLeaf {
		g, rows = trans[id], 0
		for _, c := range nd.Children {
			rows += ranks[c]
		}
	}
	if g == nil || g.Rows != rows || g.Cols != ranks[id] {
		return fmt.Errorf("core: corrupt %s generator at node %d (want %dx%d)", side, id, rows, ranks[id])
	}
	return nil
}

// validateStores checks a kernel-less stream's stored-block section against
// the loaded tree: well-formed CSR indices, the kernel's orientation, and
// exactly the blocks storeBlocks stores in Normal mode, each in the shape
// the sweeps multiply. A kernel-less matrix can evaluate no entry, so a
// block the sweeps visit but the stream lacks would be unservable.
func (m *Matrix) validateStores() error {
	nNodes := len(m.Tree.Nodes)
	sym := m.Kern.Symmetric()
	for _, st := range []struct {
		name string
		s    *BlockStore
	}{{"coupling", m.coup}, {"nearfield", m.near}} {
		if st.s.directed == sym {
			return fmt.Errorf("core: corrupt %s store: directed=%v for a kernel with symmetric=%v", st.name, st.s.directed, sym)
		}
		if err := st.s.checkIndex(nNodes); err != nil {
			return fmt.Errorf("core: corrupt %s store: %w", st.name, err)
		}
	}
	var nCoup, nNear int
	for _, c := range m.blockCandidates() {
		name, s := "coupling", m.coup
		rows, cols := len(m.skel[c.i]), len(m.colSkeleton(c.j))
		if c.near {
			name, s = "nearfield", m.near
			rows, cols = m.Tree.Nodes[c.i].Size(), m.Tree.Nodes[c.j].Size()
			nNear++
		} else {
			nCoup++
		}
		blk := s.Get(c.i, c.j)
		if blk == nil {
			return fmt.Errorf("core: corrupt stream: %s block (%d, %d) missing", name, c.i, c.j)
		}
		if blk.Rows != rows || blk.Cols != cols {
			return fmt.Errorf("core: corrupt stream: %s block (%d, %d) is %dx%d, want %dx%d", name, c.i, c.j, blk.Rows, blk.Cols, rows, cols)
		}
	}
	if m.coup.Len() != nCoup || m.near.Len() != nNear {
		return fmt.Errorf("core: corrupt stream: %d coupling and %d nearfield blocks stored, want %d and %d",
			m.coup.Len(), m.near.Len(), nCoup, nNear)
	}
	return nil
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
