package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"h2ds/internal/mat"
	"h2ds/internal/oracle"
	"h2ds/internal/pointset"
)

// refooter returns stream with its integrity footer recomputed over every
// byte before it: a crafted stream that passes the checksum, as a writer
// with a bug (or a hostile peer) would produce.
func refooter(stream []byte) []byte {
	if len(stream) < 8 {
		return stream
	}
	out := append([]byte(nil), stream...)
	body := out[:len(out)-8]
	copy(out[len(body):], serialFooterMagic)
	binary.LittleEndian.PutUint32(out[len(body)+4:], crc32.ChecksumIEEE(body))
	return out
}

// streamOf serializes m.
func streamOf(t testing.TB, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallOracleMatrix builds a kernel-less Normal matrix from a dense
// Gaussian oracle.
func smallOracleMatrix(t *testing.T, n int) *Matrix {
	t.Helper()
	pts := pointset.Cube(n, 3, 61)
	_, data := testGram(t, pts, "gaussian")
	src, err := oracle.NewDense(n, data, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildOracle(src, Config{Tol: 1e-5, LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReadRejectsCraftedStreams feeds Read and ReadAny checksum-valid
// streams whose fields lie, and demands an error naming the field for
// each: an unknown basis kind or memory mode, a kernel-less stream outside
// Normal mode, a non-monotone rowPtr, an out-of-range or unsorted colIdx,
// a block whose shape disagrees with the ranks or leaf sizes, and a
// kernel-less store that lacks a block the sweeps visit. The store cases
// mutate the live matrix's CSR arrays before WriteTo, which ships them
// verbatim.
func TestReadRejectsCraftedStreams(t *testing.T) {
	m := smallOracleMatrix(t, 300)
	pristine := streamOf(t, m)
	if _, err := ReadAny(bytes.NewReader(pristine)); err != nil {
		t.Fatalf("pristine kernel-less stream rejected: %v", err)
	}
	// A kernel-less stream's name is empty: the kind and mode bytes follow
	// the magic string (8+4), the version (4) and the empty name (8).
	const kindOff, modeOff = 24, 25
	patch := func(off int, v byte) []byte {
		out := append([]byte(nil), pristine...)
		out[off] = v
		return refooter(out)
	}

	// A coupling row with two or more blocks, and a block that is not
	// square (swapping its dimensions keeps the slab length).
	row, rect := -1, -1
	cs := m.coup
	for i := 0; i+1 < len(cs.rowPtr); i++ {
		if cs.rowPtr[i+1]-cs.rowPtr[i] >= 2 && row < 0 {
			row = i
		}
	}
	for k := range cs.hdr {
		if cs.hdr[k].Rows != cs.hdr[k].Cols && rect < 0 {
			rect = k
		}
	}
	if row < 0 || rect < 0 {
		t.Fatal("test matrix lacks a two-block coupling row or a rectangular block")
	}
	lo := cs.rowPtr[row]
	first := cs.colIdx[lo]
	mutated := func(mutate func(), restore func()) []byte {
		mutate()
		defer restore()
		return streamOf(t, m)
	}
	nNodes := int32(len(m.Tree.Nodes))
	cases := []struct {
		name, want string
		stream     []byte
	}{
		{"unknown kind", "basis kind", patch(kindOff, 7)},
		{"unknown mode", "memory mode", patch(modeOff, 9)},
		{"kernel-less on the fly", "kernel-less", patch(modeOff, byte(OnTheFly))},
		{"kernel-less hybrid", "kernel-less", patch(modeOff, byte(Hybrid))},
		{"non-monotone rowPtr", "rowPtr", mutated(
			func() { cs.rowPtr[row+1], cs.rowPtr[row] = cs.rowPtr[row], cs.rowPtr[row+1] },
			func() { cs.rowPtr[row+1], cs.rowPtr[row] = cs.rowPtr[row], cs.rowPtr[row+1] })},
		{"colIdx out of range", "out of range", mutated(
			func() { cs.colIdx[lo] += nNodes },
			func() { cs.colIdx[lo] -= nNodes })},
		{"unsorted colIdx", "unsorted", mutated(
			func() { cs.colIdx[lo], cs.colIdx[lo+1] = cs.colIdx[lo+1], cs.colIdx[lo] },
			func() { cs.colIdx[lo], cs.colIdx[lo+1] = cs.colIdx[lo+1], cs.colIdx[lo] })},
		{"block shape", "want", mutated(
			func() { cs.hdr[rect].Rows, cs.hdr[rect].Cols = cs.hdr[rect].Cols, cs.hdr[rect].Rows },
			func() { cs.hdr[rect].Rows, cs.hdr[rect].Cols = cs.hdr[rect].Cols, cs.hdr[rect].Rows })},
		// Relabelling a row's first column to a node that is no coupling
		// partner keeps the index well-formed but drops a visited block.
		{"missing block", "missing", mutated(
			func() { cs.colIdx[lo] = relabelBelow(first, m.Tree.Nodes[row].Interaction) },
			func() { cs.colIdx[lo] = first })},
	}
	for _, c := range cases {
		_, errAny := ReadAny(bytes.NewReader(c.stream))
		_, errRead := Read(bytes.NewReader(c.stream), m.Kern)
		for _, err := range []error{errAny, errRead} {
			if err == nil {
				t.Fatalf("%s: crafted stream accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
			}
		}
	}
	// The restored matrix still serializes to the pristine bytes.
	if !bytes.Equal(streamOf(t, m), pristine) {
		t.Fatal("test mutations leaked into the matrix")
	}
}

// relabelBelow returns a node id smaller than j that is not in list (or j
// itself when none exists), keeping a sorted row sorted.
func relabelBelow(j int32, list []int) int32 {
	for c := j - 1; c >= 0; c-- {
		found := false
		for _, v := range list {
			found = found || int32(v) == c
		}
		if !found {
			return c
		}
	}
	return j
}

// FuzzReadAny checks the trust boundary every spill file and replica
// transfer crosses: ReadAny either rejects a stream or returns a matrix
// whose Apply, ApplyTranspose and ApplyBatch run without panicking. Each
// input is tried as given and with its checksum footer recomputed, so
// mutations reach the validation behind the checksum. The seed corpus
// (testdata/fuzz/FuzzReadAny) holds a small hybrid Coulomb stream and a
// small kernel-less stream.
func FuzzReadAny(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, s := range [][]byte{stream, refooter(stream)} {
			m, err := ReadAny(bytes.NewReader(s))
			if err != nil {
				continue
			}
			b := make([]float64, m.N)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			m.Apply(b)
			m.ApplyTranspose(b)
			m.ApplyBatch(mat.NewDenseData(m.N, 1, b))
		}
	})
}
