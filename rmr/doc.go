// Package rmr provides a simulated asynchronous shared-memory multiprocessor
// that counts remote memory references (RMRs) exactly as defined in the
// complexity model of Alon & Morrison (PODC 2018), §2.
//
// The machine consists of W-bit (here: 64-bit) shared words supporting
// atomic read, write, CAS, Fetch-And-Add, and Fetch-And-Store (SWAP)
// operations. Two memory models are supported:
//
//   - CC (cache-coherent): each process keeps local copies of the shared
//     variables it accesses. A read is an RMR if it is the process's first
//     access to the word, or if another process updated the word since the
//     process's last access. Every write, CAS, F&A, and SWAP is an RMR and
//     invalidates all other processes' cached copies.
//   - DSM (distributed shared memory): every word is local to exactly one
//     process; any operation by another process is an RMR.
//
// Processes are represented by Proc handles. All shared-memory operations go
// through a Proc so that RMRs can be attributed per process and, via
// Proc.RMRs snapshots, per passage.
//
// Concurrent processes run under a Gate: before each operation the calling
// process parks until a Scheduler grants it the next step. The Scheduler
// runs process bodies as coroutines, one at a time, and can replay seeded
// pseudo-random interleavings, round-robin orders, or fully scripted
// adversarial schedules (Controller). This is the only way to run processes
// concurrently: a Memory, like a Go map, is used by one goroutine at a
// time, and without a gate it serves sequential setup and single-process
// code.
package rmr
