package attack

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
	dummy := func(BotCtx) (Strategy, error) { return synFlood{}, nil }
	mustPanic(t, "duplicate name", func() {
		Register(Info{Name: sweep.AttackSYNFlood, Summary: "dup"}, dummy)
	})
	mustPanic(t, "empty name", func() {
		Register(Info{Summary: "anonymous"}, dummy)
	})
	mustPanic(t, "nil factory", func() {
		Register(Info{Name: "test-nil-factory"}, nil)
	})
}

func TestNewUnknownAttackErrors(t *testing.T) {
	_, err := New("tsunami", nil)
	if err == nil {
		t.Fatal("unknown attack instantiated")
	}
	if !strings.Contains(err.Error(), "tsunami") {
		t.Errorf("error does not name the unknown attack: %v", err)
	}
	if !strings.Contains(err.Error(), string(sweep.AttackConnFlood)) {
		t.Errorf("error does not list registered attacks: %v", err)
	}
}

// TestRegistryCompleteness is the CI contract: every sweep.Attack enum
// value resolves to a registered plugin and vice versa.
func TestRegistryCompleteness(t *testing.T) {
	known := map[sweep.Attack]bool{}
	for _, name := range sweep.KnownAttacks() {
		known[name] = true
		info, ok := Lookup(name)
		if !ok {
			t.Errorf("sweep attack %q has no registered plugin", name)
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
			t.Errorf("registered attack %q is not a sweep.KnownAttacks value", info.Name)
		}
	}
}
