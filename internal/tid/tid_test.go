package tid

import (
	"testing"
	"testing/quick"
)

func TestVendorGapFree(t *testing.T) {
	v := NewVendor()
	for i := 1; i <= 100; i++ {
		if got := v.Issue(i % 7); got != TID(i) {
			t.Fatalf("Issue #%d = %d, want gap-free sequence", i, got)
		}
	}
	if v.Issued() != 100 {
		t.Fatalf("Issued = %d", v.Issued())
	}
}

func TestVendorOutstanding(t *testing.T) {
	v := NewVendor()
	a := v.Issue(0)
	b := v.Issue(1)
	if v.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d", v.Outstanding())
	}
	v.Retire(a)
	if v.Outstanding() != 1 {
		t.Fatal("Retire did not reduce outstanding")
	}
	v.Retire(b)
	if v.Outstanding() != 0 {
		t.Fatal("outstanding after all retired")
	}
}

func TestVendorDoubleRetirePanics(t *testing.T) {
	v := NewVendor()
	a := v.Issue(0)
	v.Retire(a)
	defer func() {
		if recover() == nil {
			t.Error("double retire did not panic")
		}
	}()
	v.Retire(a)
}

func TestVendorUnknownRetirePanics(t *testing.T) {
	v := NewVendor()
	defer func() {
		if recover() == nil {
			t.Error("unknown retire did not panic")
		}
	}()
	v.Retire(99)
}

// Property: issue/retire sequences keep Outstanding() == issued - retired
// and the sequence remains dense.
func TestVendorProperty(t *testing.T) {
	f := func(retires []bool) bool {
		v := NewVendor()
		var open []TID
		issued, retired := 0, 0
		for _, r := range retires {
			if r && len(open) > 0 {
				v.Retire(open[0])
				open = open[1:]
				retired++
				continue
			}
			tid := v.Issue(0)
			issued++
			if tid != TID(issued) {
				return false
			}
			open = append(open, tid)
		}
		return v.Outstanding() == issued-retired
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
