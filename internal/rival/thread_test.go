package rival

import (
	"testing"
	"testing/quick"

	"scalabletcc/internal/mem"
)

// lineVers answers every get as the map it replaced would, across sets,
// overwrites and deletes that move the last entry into the gap.
func TestLineVersMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		var x lineVers
		model := map[mem.Addr]mem.Version{}
		for i, op := range ops {
			base := mem.Addr(op%97) * 32
			if op&0x8000 != 0 {
				x.del(base)
				delete(model, base)
			} else {
				x.set(base, mem.Version(i+1))
				model[base] = mem.Version(i + 1)
			}
		}
		if len(x.e) != len(model) {
			return false
		}
		for b := mem.Addr(0); b < 97*32; b += 32 {
			v, ok := x.get(b)
			if mv, mok := model[b]; ok != mok || v != mv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
