package rmr

import "runtime"

// osyield yields the processor to let other goroutines run. Free-running
// busy-wait loops call it through Proc.Yield, the simulator's only way to
// wait, so that spinning processes cannot starve the process that would
// release them, which matters on low-core-count hosts.
func osyield() {
	runtime.Gosched()
}
