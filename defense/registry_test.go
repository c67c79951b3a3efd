package defense

import (
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestRegisterRejectsBadRegistrations(t *testing.T) {
	dummy := func(ServerCtx) (Defense, error) { return noneDefense{}, nil }
	mustPanic(t, "duplicate name", func() {
		Register(Info{Name: sweep.DefenseNone, Summary: "dup"}, dummy)
	})
	mustPanic(t, "empty name", func() {
		Register(Info{Summary: "anonymous"}, dummy)
	})
	mustPanic(t, "nil factory", func() {
		Register(Info{Name: "test-nil-factory"}, nil)
	})
}

func TestNewUnknownDefenseErrors(t *testing.T) {
	_, err := New("voodoo", nil)
	if err == nil {
		t.Fatal("unknown defense instantiated")
	}
	if !strings.Contains(err.Error(), "voodoo") {
		t.Errorf("error does not name the unknown defense: %v", err)
	}
	// The error must teach the caller what exists.
	if !strings.Contains(err.Error(), string(sweep.DefensePuzzles)) {
		t.Errorf("error does not list registered defenses: %v", err)
	}
}

// TestRegistryCompleteness is the CI contract: every sweep.Defense enum
// value resolves to a registered plugin, and every registered plugin is a
// declared enum value — the grid vocabulary and the registry can never
// drift apart.
func TestRegistryCompleteness(t *testing.T) {
	known := map[sweep.Defense]bool{}
	for _, name := range sweep.KnownDefenses() {
		known[name] = true
		info, ok := Lookup(name)
		if !ok {
			t.Errorf("sweep defense %q has no registered plugin", name)
			continue
		}
		if info.Name != name {
			t.Errorf("plugin for %q registered as %q", name, info.Name)
		}
		if info.Summary == "" {
			t.Errorf("plugin %q has no summary", name)
		}
	}
	for _, info := range Infos() {
		if !known[info.Name] {
			t.Errorf("registered defense %q is not a sweep.KnownDefenses value", info.Name)
		}
	}
}
