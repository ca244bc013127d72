// Package device defines the abstraction the OpenCL runtime uses to
// execute NDRanges: a Device combines functional execution (via the
// VM) with a timing and activity model, producing a Report the power
// model converts into energy.
package device

import (
	"errors"
	"fmt"
	"math"

	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// ErrOutOfResources mirrors CL_OUT_OF_RESOURCES: the kernel cannot be
// mapped onto the device (typically register-file exhaustion).
var ErrOutOfResources = errors.New("CL_OUT_OF_RESOURCES")

// ErrInvalidWorkGroupSize mirrors CL_INVALID_WORK_GROUP_SIZE.
var ErrInvalidWorkGroupSize = errors.New("CL_INVALID_WORK_GROUP_SIZE")

// NDRange is one kernel enqueue.
type NDRange struct {
	Kernel  *ir.Kernel
	WorkDim int
	Global  [3]int
	Local   [3]int // zeros: driver picks (clEnqueueNDRangeKernel with NULL local)
	Offset  [3]int
	Args    []vm.ArgValue
}

// TotalWorkItems returns the NDRange size. Products that exceed the
// host int range saturate at math.MaxInt instead of wrapping negative;
// ValidateNDRange rejects such ranges before any device runs them.
func (n *NDRange) TotalWorkItems() int {
	total := 1
	for d := 0; d < n.WorkDim; d++ {
		g := n.Global[d]
		if g > 0 && total > math.MaxInt/g {
			return math.MaxInt
		}
		total *= g
	}
	return total
}

// Report is the timing/activity outcome of one enqueue.
type Report struct {
	// Seconds is the wall-clock duration of the enqueue on the device,
	// including dispatch overheads.
	Seconds float64
	// DispatchSeconds is the portion of Seconds spent before the first
	// instruction executes (driver enqueue overhead, OpenMP fork).
	// Event profiling uses it as the SUBMIT→START window.
	DispatchSeconds float64
	// BusyCoreSeconds is Σ over cores of seconds spent executing.
	BusyCoreSeconds float64
	// ActiveCores is the number of cores that executed any work.
	ActiveCores int
	// Utilization is the average busy-core pipeline utilization in
	// [0,1]; it drives the dynamic power term.
	Utilization float64
	// ArithUtil and LSUtil are the per-pipe busy fractions behind
	// Utilization, where the device model distinguishes pipes (the
	// Mali arithmetic and load/store pipelines); zero elsewhere.
	ArithUtil float64
	LSUtil    float64
	// DRAMBytes is traffic that reached DRAM (post-cache).
	DRAMBytes uint64
	// Profile is the functional execution profile.
	Profile vm.Profile
}

// Device executes NDRanges against a memory target.
type Device interface {
	// Name identifies the device (e.g. "Mali-T604").
	Name() string
	// RunWith executes the NDRange functionally under rc (cancellation,
	// worker pool, trace observers, launch record/replay) and returns
	// its report.
	RunWith(rc RunConfig, ndr *NDRange, mem vm.GlobalMemory) (*Report, error)
	// DefaultLocalSize is the driver's work-group size heuristic used
	// when the host passes a nil local size.
	DefaultLocalSize(ndr *NDRange) [3]int
	// MaxWorkGroupSize is the device limit on work-group size.
	MaxWorkGroupSize() int
}

// ValidateNDRange applies the OpenCL launch rules common to devices.
// Besides the per-dimension rules, it rejects ranges whose work-item
// total, work-group size or work-group count overflows the host int —
// huge globals must fail with ErrInvalidWorkGroupSize, not wrap to a
// negative count and misbehave downstream.
func ValidateNDRange(d Device, ndr *NDRange) error {
	if ndr.WorkDim < 1 || ndr.WorkDim > 3 {
		return fmt.Errorf("work_dim %d: %w", ndr.WorkDim, ErrInvalidWorkGroupSize)
	}
	wgSize, totalWI, totalGroups := 1, 1, 1
	for dim := 0; dim < ndr.WorkDim; dim++ {
		g, l := ndr.Global[dim], ndr.Local[dim]
		if g <= 0 {
			return fmt.Errorf("global size %d in dim %d: %w", g, dim, ErrInvalidWorkGroupSize)
		}
		if l <= 0 {
			return fmt.Errorf("local size %d in dim %d: %w", l, dim, ErrInvalidWorkGroupSize)
		}
		if g%l != 0 {
			return fmt.Errorf("global size %d not divisible by local size %d in dim %d: %w",
				g, l, dim, ErrInvalidWorkGroupSize)
		}
		if wgSize > math.MaxInt/l {
			return fmt.Errorf("work-group size overflows in dim %d: %w", dim, ErrInvalidWorkGroupSize)
		}
		wgSize *= l
		if totalWI > math.MaxInt/g {
			return fmt.Errorf("total work-items overflow in dim %d (global %v): %w",
				dim, ndr.Global, ErrInvalidWorkGroupSize)
		}
		totalWI *= g
		ng := g / l
		if ng > 0 && totalGroups > math.MaxInt/ng {
			return fmt.Errorf("work-group count overflows in dim %d: %w", dim, ErrInvalidWorkGroupSize)
		}
		totalGroups *= ng
	}
	if wgSize > d.MaxWorkGroupSize() {
		return fmt.Errorf("work-group size %d exceeds device maximum %d: %w",
			wgSize, d.MaxWorkGroupSize(), ErrInvalidWorkGroupSize)
	}
	return nil
}

// ForEachGroup enumerates work-group IDs of the NDRange in row-major
// order and invokes fn for each.
func ForEachGroup(ndr *NDRange, fn func(group [3]int) error) error {
	ng := [3]int{1, 1, 1}
	for d := 0; d < ndr.WorkDim; d++ {
		ng[d] = ndr.Global[d] / ndr.Local[d]
	}
	for gz := 0; gz < ng[2]; gz++ {
		for gy := 0; gy < ng[1]; gy++ {
			for gx := 0; gx < ng[0]; gx++ {
				if err := fn([3]int{gx, gy, gz}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NormalizeLocal fills unset local dimensions with 1 and applies the
// device default when the entire local size is unset.
func NormalizeLocal(d Device, ndr *NDRange) {
	allZero := true
	for dim := 0; dim < ndr.WorkDim; dim++ {
		if ndr.Local[dim] != 0 {
			allZero = false
		}
	}
	if allZero {
		ndr.Local = d.DefaultLocalSize(ndr)
	}
	for dim := 0; dim < 3; dim++ {
		if ndr.Local[dim] == 0 {
			ndr.Local[dim] = 1
		}
		if ndr.Global[dim] == 0 {
			ndr.Global[dim] = 1
		}
	}
}
