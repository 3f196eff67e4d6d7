package locks

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"sublock/rmr"
)

// Info describes one registered lock: the metadata the harness, the CLIs,
// the benchmark matrix, and the conformance suite need to drive it without
// lock-specific code.
type Info struct {
	// Name is the registry key — the value of the CLIs' -lock flag and the
	// row name of every generated table.
	Name string
	// Summary is a one-line description for -list-locks and the docs.
	Summary string
	// Abortable reports whether Enter observes the abort signal. Workloads
	// that deliver abort signals skip non-abortable locks.
	Abortable bool
	// OneShot reports whether each handle (and each process) may enter at
	// most once per built instance. Multi-passage workloads skip one-shot
	// locks or rebuild the instance per passage.
	OneShot bool
	// CCOnly reports whether the lock requires the CC memory model; its
	// factory fails on a DSM memory.
	CCOnly bool
	// Labels lists the shared-memory region label prefixes the lock interns
	// at construction (e.g. "mcs/"). The conformance suite checks that RMRs
	// attributed to labeled words carry one of these prefixes.
	Labels []string
	// IDSymmetric reports that the lock's behavior is invariant under
	// process-id permutation within a role: no per-id data structures whose
	// scan order leaks the id (tournament-tree locks, for example, assign
	// ids to fixed leaf slots and are NOT id-symmetric). The exhaustive
	// harness only enables the Explorer's symmetry reduction for locks that
	// set this.
	IDSymmetric bool
	// Rewindable reports that the lock's run-time state lives entirely in
	// its shared-memory words: nothing the Factory returns (the HandleFunc
	// and the Go values it closes over) changes after the build, and
	// handles keep their per-passage state themselves. Rewinding the memory
	// to a mark taken right after the build (rmr.Memory.Mark/Rewind) then
	// yields a fresh instance, so the exhaustive harness builds such a lock
	// once per worker and rewinds it per run instead of rebuilding it. A
	// lock with Go-side bookkeeping that runs mutate (free lists, say) must
	// leave it false and is rebuilt per run.
	Rewindable bool
	// New builds an instance of the lock.
	New Factory

	// pkg is the directory basename of the package that called Register,
	// recorded so the conformance suite can diff registered locks against
	// the lock packages present on disk.
	pkg string
}

// Package returns the directory basename of the package that registered
// this lock (e.g. "mcs" for locks/mcs).
func (i Info) Package() string { return i.pkg }

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a lock to the registry. It is meant to be called from the
// lock package's init function and panics on a nil factory, an empty name,
// or a duplicate name — a duplicate is always a programming error, and
// failing loudly at init keeps the name space coherent.
func Register(info Info) {
	if info.Name == "" {
		panic("locks: Register with an empty name")
	}
	if info.New == nil {
		panic(fmt.Sprintf("locks: Register(%q) with a nil factory", info.Name))
	}
	if info.pkg == "" {
		if _, file, _, ok := runtime.Caller(1); ok {
			info.pkg = filepath.Base(filepath.Dir(file))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("locks: Register called twice for %q", info.Name))
	}
	registry[info.Name] = info
}

// Names returns every registered lock name in sorted order. The order is
// deterministic so table rows, benchmark matrices, and conformance subtests
// are stable across runs.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Infos returns every registered lock's Info, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	infos := make([]Info, 0, len(registry))
	for _, info := range registry {
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Packages returns the sorted set of package directory basenames that have
// registered at least one lock.
func Packages() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	seen := map[string]bool{}
	for _, info := range registry {
		if info.pkg != "" {
			seen[info.pkg] = true
		}
	}
	pkgs := make([]string, 0, len(seen))
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

// Lookup returns the Info registered under name.
func Lookup(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// ErrUnknown is the error returned by Build for an unregistered name. The
// message carries the sorted registry so a CLI can surface the valid set
// without extra plumbing.
type ErrUnknown struct {
	Name       string
	Registered []string // sorted
}

func (e *ErrUnknown) Error() string {
	return fmt.Sprintf("locks: unknown lock %q (registered: %s)",
		e.Name, strings.Join(e.Registered, ", "))
}

// Build constructs the named lock in m, sized for capacity participants,
// and returns the per-process handle constructor. w is the tree arity for
// tree-based locks. Unknown names yield an *ErrUnknown listing the
// registered set.
func Build(m *rmr.Memory, name string, w, capacity int) (HandleFunc, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, &ErrUnknown{Name: name, Registered: Names()}
	}
	return info.New(m, w, capacity)
}
