package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// synthesisDigests pins workload synthesis draw for draw. They were
// computed before the synthesis draws moved to integer thresholds and
// the four-wide Geometric; a mismatch means some draw changed, which
// moves every Result. Never regenerate them to make the test pass.
var synthesisDigests = map[string][2]string{
	"GemsFDTD":  {"064c8386578e2c19", "007ad8ed0a3a12cf"},
	"astar":     {"ef33a28a050a5eff", "b03fa67de3018e6d"},
	"bwaves":    {"f64fff3d4b29b8ab", "3286eb87569e188d"},
	"bzip2":     {"c58214f8265f3922", "240fc67ac182c10b"},
	"cactusADM": {"5d3f584a23259f93", "a5cde0de5edec6ff"},
	"calculix":  {"3de8c08bc770bcb2", "7c92b25e0aecca6d"},
	"dealII":    {"0d18c64b61c899d7", "8509ef5388680d92"},
	"gamess":    {"e8c2dcecec8aa9ca", "f134850fb6b395f9"},
	"gcc":       {"6dbdb6ded823096f", "f3123f518e5d925e"},
	"gobmk":     {"097576d2d458f644", "7e65cecb56983529"},
	"gromacs":   {"350b69f2a6d120a7", "ea429720f55584a1"},
	"h264ref":   {"01e8b9bcca769f0b", "601409ead6fd784c"},
	"hmmer":     {"cce028401db96ccf", "27cf97ecd486b4a0"},
	"lbm":       {"286b1c30b37e42db", "8c44563da498a0a7"},
	"leslie3d":  {"9c853ce4107139fa", "b51c7d57279667fd"},
	"mcf":       {"37aad201687e151d", "aa4ef773d971d815"},
	"milc":      {"6dc8f69247280119", "478378b62f0643d3"},
	"namd":      {"b5bbc56a1d04dbc4", "a60a271aba26af3a"},
	"omnetpp":   {"f3d6a478551625a3", "fec0529afafbf7fb"},
	"perlbench": {"8fde5391ebfe2fe6", "ac6893e9e27a27e1"},
	"povray":    {"e1e2078b83150963", "463b28b976ce6ddb"},
	"sjeng":     {"ef76ad0039452814", "1c448ee1d59d02f3"},
	"soplex":    {"641a4ccac34d58e6", "5765d61be01643a0"},
	"sphinx3":   {"23760415171ead76", "3ab289becf2a32eb"},
	"tonto":     {"af656746d16b80b3", "24562fffe2602ad4"},
	"wrf":       {"845ee5ffad91fa88", "c885a22c560d62a1"},
	"xalancbmk": {"a26d446694d524a4", "894408fc67512b97"},
	"zeusmp":    {"f24de4c50cd92f9d", "872932e683322c2c"},
}

// digestSeedXor gives each profile a second seed, as MixPrograms does
// for replicated programs.
var digestSeedXor = [2]uint64{0, 0x9e3779b97f4a7c15}

// synthesisDigest hashes the first 20k SynthGen accesses of p and, on
// every tenth access, the line ReadLine returns and the same line after
// ApplyStore (2k of each); every other such line is written back, so
// later reads of it take the written-line path.
func synthesisDigest(p Profile) string {
	g := NewSynthGen(p)
	m := NewMemory(p)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 20000; i++ {
		a := g.Next()
		put(uint64(a.Kind))
		put(a.Addr)
		put(uint64(a.NonMem))
		if i%10 != 0 {
			continue
		}
		line := m.ReadLine(a.Addr)
		h.Write(line)
		m.ApplyStore(line, a.Addr)
		h.Write(line)
		if i%20 == 0 {
			m.WriteLine(a.Addr, line)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSynthesisDigest checks every catalog profile, at two seeds,
// against the pinned digests.
func TestSynthesisDigest(t *testing.T) {
	for _, name := range Names() {
		want, ok := synthesisDigests[name]
		if !ok {
			t.Errorf("%s: no pinned digest", name)
			continue
		}
		for k, x := range digestSeedXor {
			p := MustGet(name)
			p.Seed ^= x
			if got := synthesisDigest(p); got != want[k] {
				t.Errorf("%s seed %d: synthesis digest %s, want %s: a draw changed", name, k, got, want[k])
			}
		}
	}
}
