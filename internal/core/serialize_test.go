package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func roundTrip(t *testing.T, m *Matrix, k kernel.Pairwise) *Matrix {
	t.Helper()
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	m2, err := Read(&buf, k)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

func TestSerializeRoundTripDataDriven(t *testing.T) {
	pts := pointset.Cube(1500, 3, 90)
	b := randVec(1500, 91)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		m2 := roundTrip(t, m, kernel.Coulomb{})
		y1 := m.Apply(b)
		y2 := m2.Apply(b)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("mode %v: loaded matrix differs at %d: %g vs %g", mode, i, y1[i], y2[i])
			}
		}
		if m2.Stats().MaxRank != m.Stats().MaxRank || m2.Stats().Leaves != m.Stats().Leaves {
			t.Fatalf("mode %v: stats differ after round trip", mode)
		}
		if m2.hier == nil {
			t.Fatal("hierarchy lost in round trip")
		}
	}
}

func TestSerializeRoundTripInterpolation(t *testing.T) {
	pts := pointset.Cube(1000, 2, 92)
	b := randVec(1000, 93)
	m, err := Build(pts, kernel.Exponential{}, Config{Kind: Interpolation, Mode: OnTheFly, Tol: 1e-5, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, m, kernel.Exponential{})
	y1 := m.Apply(b)
	y2 := m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded interpolation matrix differs at %d", i)
		}
	}
}

func TestSerializeRoundTripUnsymmetric(t *testing.T) {
	pts := pointset.Cube(900, 3, 94)
	b := randVec(900, 95)
	k := drift3()
	m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, m, k)
	y1 := m.Apply(b)
	y2 := m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded unsymmetric matrix differs at %d", i)
		}
	}
}

func TestReadAnyResolvesKernel(t *testing.T) {
	pts := pointset.Cube(800, 3, 89)
	b := randVec(800, 88)
	m, err := Build(pts, kernel.Gaussian{Scale: 0.1}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Kern.Name(); got != "gaussian" {
		t.Fatalf("resolved kernel %q, want gaussian", got)
	}
	y1, y2 := m.Apply(b), m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("ReadAny matrix differs at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

func TestReadAnyUnknownKernel(t *testing.T) {
	pts := pointset.Cube(300, 3, 87)
	// An unregistered kernel serializes fine but cannot be resolved by name.
	m, err := Build(pts, drift3(), Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAny(&buf); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("expected unknown-kernel error, got %v", err)
	}
}

func TestSerializeKernelMismatch(t *testing.T) {
	pts := pointset.Cube(300, 3, 96)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, kernel.Gaussian{Scale: 0.1}); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("expected kernel mismatch error, got %v", err)
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an h2ds file at all")), kernel.Coulomb{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil), kernel.Coulomb{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSerializeTruncatedStream(t *testing.T) {
	pts := pointset.Cube(400, 3, 97)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{2, 4, 10} {
		cut := full[:len(full)/frac]
		if _, err := Read(bytes.NewReader(cut), kernel.Coulomb{}); err == nil {
			t.Fatalf("truncated stream (1/%d) accepted", frac)
		}
	}
}

// TestSerializeDetectsFlippedBytes is the torn/corrupt-transfer test for the
// v4 checksum footer: flipping any single byte of a valid stream — including
// deep inside the float payload, where every pre-v4 format version would
// deserialize silently — must be rejected.
func TestSerializeDetectsFlippedBytes(t *testing.T) {
	pts := pointset.Cube(500, 3, 99)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// A spread of offsets across the stream: the version word, coordinate
	// float payload (offsets 200 and 1000 sit inside the 12000-byte coords
	// block, low-order mantissa bytes a value check can never catch), and
	// both halves of the footer. Offsets inside length headers are avoided —
	// they fail too, but via over-long reads rather than the CRC.
	offsets := []int{13, 200, 1000, len(full) - 6, len(full) - 3}
	for _, off := range offsets {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0x01
		if _, err := Read(bytes.NewReader(corrupt), kernel.Coulomb{}); err == nil {
			t.Fatalf("flipped byte at offset %d/%d accepted", off, len(full))
		}
	}
	// Dropping the footer (a torn write that lost the tail) must also fail.
	if _, err := Read(bytes.NewReader(full[:len(full)-8]), kernel.Coulomb{}); err == nil {
		t.Fatal("stream with missing footer accepted")
	}
	// The untouched stream still loads.
	if _, err := Read(bytes.NewReader(full), kernel.Coulomb{}); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}

// TestReadRejectsOtherVersions checks that Read and ReadAny accept only the
// current stream version and name any other in the error. Besides the bare
// version-word patches it covers the two pre-v4 shapes that used to load
// without a checksum check: a footer-less stream relabelled version 3, and
// a version-3 relabel of a valid stream with one coordinate byte flipped —
// the silently wrong matrix a downgrade could smuggle past the footer.
func TestReadRejectsOtherVersions(t *testing.T) {
	pts := pointset.Cube(400, 3, 100)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The version word follows the magic string (8-byte length + 4 bytes).
	const verOff = 8 + 4
	relabel := func(stream []byte, v byte) []byte {
		out := append([]byte(nil), stream...)
		out[verOff] = v
		return out
	}
	type bad struct {
		name   string
		ver    int
		stream []byte
	}
	var cases []bad
	for _, v := range []byte{1, 2, 3, 4, 6} {
		cases = append(cases, bad{fmt.Sprintf("relabelled v%d", v), int(v), relabel(full, v)})
	}
	cases = append(cases, bad{"footer-less v3", 3, relabel(full[:len(full)-8], 3)})
	// Offset 200 lies inside the 9600-byte coordinate payload, which starts
	// at byte 122 of a Coulomb stream.
	flipped := relabel(full, 3)
	flipped[200] ^= 0x01
	cases = append(cases, bad{"v3 with flipped coordinate", 3, flipped})

	for _, c := range cases {
		want := fmt.Sprintf("version %d", c.ver)
		_, errRead := Read(bytes.NewReader(c.stream), kernel.Coulomb{})
		_, errAny := ReadAny(bytes.NewReader(c.stream))
		for _, err := range []error{errRead, errAny} {
			if err == nil {
				t.Fatalf("%s: stream accepted", c.name)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", c.name, err, want)
			}
		}
	}
	if _, err := ReadAny(bytes.NewReader(full)); err != nil {
		t.Fatalf("current-version stream rejected: %v", err)
	}
}

func TestSerializeCorruptPermutation(t *testing.T) {
	pts := pointset.Cube(200, 2, 98)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a permutation entry in the live structure and re-serialize:
	// Read must reject it.
	m.Tree.Perm[0] = 999999
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, kernel.Coulomb{}); err == nil {
		t.Fatal("corrupt permutation accepted")
	}
}

// TestSerializeRejectsCorruptLists mutates the block lists of a live tree
// before WriteTo — so the stream's checksum is valid — and demands that Read
// rejects every list shape the apply cannot trust: unsorted, self-less,
// non-leaf or one-sided Near lists, a Near list on an internal node, and a
// one-sided interaction list.
func TestSerializeRejectsCorruptLists(t *testing.T) {
	m, err := Build(pointset.Cube(600, 3, 97), kernel.Coulomb{},
		Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.Tree.Nodes
	// A leaf with an off-diagonal partner, and a node with a non-empty
	// interaction list.
	leaf, partner := -1, -1
	for _, l := range m.Tree.Leaves {
		for _, j := range nodes[l].Near {
			if j != l && leaf < 0 {
				leaf, partner = l, j
			}
		}
	}
	ilNode := -1
	for id := range nodes {
		if len(nodes[id].Interaction) > 0 && ilNode < 0 {
			ilNode = id
		}
	}
	if leaf < 0 || ilNode < 0 || nodes[0].IsLeaf {
		t.Fatal("test tree lacks a near pair, an interaction list, or an internal root")
	}
	without := func(list []int, v int) []int {
		out := []int{}
		for _, x := range list {
			if x != v {
				out = append(out, x)
			}
		}
		return out
	}
	swapped := func(list []int) []int {
		out := append([]int(nil), list...)
		out[0], out[1] = out[1], out[0]
		return out
	}
	cases := []struct {
		name, want string
		mutate     func()
	}{
		{"unsorted", "ascending", func() { nodes[leaf].Near = swapped(nodes[leaf].Near) }},
		{"no-self", "own list", func() { nodes[leaf].Near = without(nodes[leaf].Near, leaf) }},
		{"non-leaf", "not a leaf", func() { nodes[leaf].Near = append([]int{0}, nodes[leaf].Near...) }},
		{"one-sided-near", "reverse entry", func() { nodes[partner].Near = without(nodes[partner].Near, leaf) }},
		{"internal-near", "internal node", func() { nodes[0].Near = []int{leaf} }},
		{"one-sided-interaction", "interaction list", func() {
			j := nodes[ilNode].Interaction[0]
			nodes[j].Interaction = without(nodes[j].Interaction, ilNode)
		}},
	}
	for _, tc := range cases {
		saved := make([][2][]int, len(nodes))
		for id := range nodes {
			saved[id] = [2][]int{nodes[id].Near, nodes[id].Interaction}
		}
		tc.mutate()
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for id := range nodes {
			nodes[id].Near, nodes[id].Interaction = saved[id][0], saved[id][1]
		}
		_, err := Read(&buf, kernel.Coulomb{})
		if err == nil {
			t.Fatalf("%s: corrupt lists accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The restored tree still round-trips.
	roundTrip(t, m, kernel.Coulomb{})
}
