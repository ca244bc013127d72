package device_test

import (
	"errors"
	"math"
	"testing"

	"maligo/internal/device"
	"maligo/internal/vm"
)

// stub is a minimal Device for validation tests.
type stub struct{ maxWG int }

func (s *stub) Name() string { return "stub" }
func (s *stub) RunWith(rc device.RunConfig, ndr *device.NDRange, mem vm.GlobalMemory) (*device.Report, error) {
	return &device.Report{Seconds: 1}, nil
}
func (s *stub) DefaultLocalSize(ndr *device.NDRange) [3]int { return [3]int{1, 1, 1} }
func (s *stub) MaxWorkGroupSize() int                       { return s.maxWG }

func TestValidateNDRange(t *testing.T) {
	d := &stub{maxWG: 256}
	ok := &device.NDRange{WorkDim: 1, Global: [3]int{128, 1, 1}, Local: [3]int{32, 1, 1}}
	device.NormalizeLocal(d, ok)
	if err := device.ValidateNDRange(d, ok); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}

	bad := []*device.NDRange{
		{WorkDim: 0, Global: [3]int{128, 1, 1}, Local: [3]int{32, 1, 1}},
		{WorkDim: 4, Global: [3]int{128, 1, 1}, Local: [3]int{32, 1, 1}},
		{WorkDim: 1, Global: [3]int{100, 1, 1}, Local: [3]int{32, 1, 1}},  // indivisible
		{WorkDim: 1, Global: [3]int{0, 1, 1}, Local: [3]int{32, 1, 1}},    // empty global
		{WorkDim: 2, Global: [3]int{32, 32, 1}, Local: [3]int{32, 32, 1}}, // 1024 > 256
	}
	for i, ndr := range bad {
		if err := device.ValidateNDRange(d, ndr); !errors.Is(err, device.ErrInvalidWorkGroupSize) {
			t.Errorf("case %d: err = %v, want ErrInvalidWorkGroupSize", i, err)
		}
	}
}

func TestNormalizeLocalAppliesDefault(t *testing.T) {
	d := &stub{maxWG: 256}
	ndr := &device.NDRange{WorkDim: 2, Global: [3]int{64, 8, 0}}
	device.NormalizeLocal(d, ndr)
	if ndr.Local != [3]int{1, 1, 1} {
		t.Errorf("Local = %v", ndr.Local)
	}
	if ndr.Global[2] != 1 {
		t.Errorf("unset global dims must become 1, got %v", ndr.Global)
	}
}

func TestForEachGroupOrder(t *testing.T) {
	ndr := &device.NDRange{WorkDim: 2, Global: [3]int{4, 2, 1}, Local: [3]int{2, 1, 1}}
	var got [][3]int
	err := device.ForEachGroup(ndr, func(g [3]int) error {
		got = append(got, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group order = %v, want %v", got, want)
		}
	}
}

func TestTotalWorkItems(t *testing.T) {
	ndr := &device.NDRange{WorkDim: 3, Global: [3]int{4, 5, 6}}
	if got := ndr.TotalWorkItems(); got != 120 {
		t.Errorf("TotalWorkItems = %d", got)
	}
	ndr2 := &device.NDRange{WorkDim: 1, Global: [3]int{7, 99, 99}}
	if got := ndr2.TotalWorkItems(); got != 7 {
		t.Errorf("TotalWorkItems (1D) = %d", got)
	}
}

// TestTotalWorkItemsSaturates checks a product that exceeds the host
// int range saturates at math.MaxInt instead of wrapping negative
// (1<<40+1 squared wraps to 2^41+1 with plain multiplication).
func TestTotalWorkItemsSaturates(t *testing.T) {
	huge := 1<<40 + 1
	ndr := &device.NDRange{WorkDim: 2, Global: [3]int{huge, huge}}
	if got := ndr.TotalWorkItems(); got != math.MaxInt {
		t.Errorf("TotalWorkItems = %d, want math.MaxInt", got)
	}
	if got := ndr.TotalWorkItems(); got < 0 {
		t.Errorf("TotalWorkItems wrapped negative: %d", got)
	}
}

// TestValidateNDRangeOverflow checks ranges whose work-item total,
// group size or group count overflows int are rejected with
// ErrInvalidWorkGroupSize rather than wrapping.
func TestValidateNDRangeOverflow(t *testing.T) {
	d := &stub{maxWG: 1 << 62}
	huge := 1<<40 + 2
	bad := []*device.NDRange{
		// total work-items overflows
		{WorkDim: 2, Global: [3]int{huge, huge, 1}, Local: [3]int{2, 2, 1}},
		// work-group size overflows
		{WorkDim: 2, Global: [3]int{huge, huge, 1}, Local: [3]int{huge, huge, 1}},
		// work-group count overflows (local 1 keeps wgSize small)
		{WorkDim: 3, Global: [3]int{huge, huge, huge}, Local: [3]int{1, 1, 1}},
	}
	for i, ndr := range bad {
		if err := device.ValidateNDRange(d, ndr); !errors.Is(err, device.ErrInvalidWorkGroupSize) {
			t.Errorf("case %d: err = %v, want ErrInvalidWorkGroupSize", i, err)
		}
	}
}
