// Package registry is the name-keyed plugin table behind packages defense
// and attack. Each plugin registers its identity (an info record) and a
// factory under a unique name at init time; a simulator resolves a
// scenario's name to both once, when it builds a server or a fleet.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry maps names to registrations: an info record I and a factory
// that builds a V from a C. Build one with New.
type Registry[N ~string, I, C, V any] struct {
	kind    string
	mu      sync.RWMutex
	entries map[N]entry[I, C, V]
}

type entry[I, C, V any] struct {
	info    I
	factory func(C) V
}

// New returns an empty registry whose panics and errors name the plugin
// kind ("defense", "attack").
func New[N ~string, I, C, V any](kind string) *Registry[N, I, C, V] {
	return &Registry[N, I, C, V]{kind: kind, entries: map[N]entry[I, C, V]{}}
}

// Register adds a plugin under name. It panics on an empty name, a nil
// factory, or a duplicate registration — all programmer errors at init
// time.
func (r *Registry[N, I, C, V]) Register(name N, info I, factory func(C) V) {
	if name == "" {
		panic(r.kind + ": Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("%s: Register(%q) with nil factory", r.kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("%s: duplicate registration of %q", r.kind, name))
	}
	r.entries[name] = entry[I, C, V]{info: info, factory: factory}
}

// Lookup returns the info and factory registered under name. An unknown
// name errors with the registered alternatives.
func (r *Registry[N, I, C, V]) Lookup(name N) (I, func(C) V, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return e.info, nil, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			r.kind, r.kind, name, strings.Join(r.names(), ", "))
	}
	return e.info, e.factory, nil
}

// Infos lists every registration's info, sorted by name.
func (r *Registry[N, I, C, V]) Infos() []I {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := r.names()
	out := make([]I, len(names))
	for i, name := range names {
		out[i] = r.entries[N(name)].info
	}
	return out
}

// names lists the registered names, sorted. The caller holds r.mu.
func (r *Registry[N, I, C, V]) names() []string {
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, string(name))
	}
	sort.Strings(out)
	return out
}
