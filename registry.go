package themis

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// registry is the one body behind the facade's named tables — policies,
// scenarios, clusters and packers: an RWMutex-guarded map with sorted names
// and lookup. The policy, scenario and cluster tables are built in; only
// packers take registrations at run time. kind names the table in its error
// messages.
type registry[E any] struct {
	kind    string
	mu      sync.RWMutex
	entries map[string]E
}

// newRegistry returns a table holding the built-in entries.
func newRegistry[E any](kind string, entries map[string]E) *registry[E] {
	return &registry[E]{kind: kind, entries: entries}
}

// register adds an entry under a fresh name. hasFactory is whether the
// caller supplied the entry's factory; an entry without one, or without a
// name, is refused, as is a name already taken.
func (r *registry[E]) register(name string, e E, hasFactory bool) error {
	if name == "" || !hasFactory {
		return fmt.Errorf("themis: %s registration needs a name and a factory", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("themis: %s %q already registered", r.kind, name)
	}
	r.entries[name] = e
	return nil
}

// names lists the registered names, sorted.
func (r *registry[E]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.entries))
}

// lookup returns a registered entry, or an error listing the registered
// names. The listing is taken under the same read lock as the miss: taking
// the lock again while holding it would deadlock against a waiting register.
func (r *registry[E]) lookup(name string) (E, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return e, fmt.Errorf("themis: unknown %s %q (registered: %v)", r.kind, name, slices.Sorted(maps.Keys(r.entries)))
	}
	return e, nil
}
