package attack

import (
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestRegistryCompleteness is the CI contract: every sweep.Attack enum
// value resolves to a registered plugin and vice versa.
func TestRegistryCompleteness(t *testing.T) {
	known := map[sweep.Attack]bool{}
	for _, name := range sweep.KnownAttacks() {
		known[name] = true
		info, _, err := Lookup(name)
		if err != nil {
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

// TestRegisterRejectsBadRegistrations: Register keys the package's
// registry by Info.Name, so a second plugin under a built-in name, a
// nameless plugin and a nil factory panic at init time.
func TestRegisterRejectsBadRegistrations(t *testing.T) {
	factory := func(BotCtx) Strategy { return synFlood{} }
	for _, tc := range []struct {
		name, want string
		info       Info
		factory    Factory
	}{
		{"duplicate-name", `attack: duplicate registration of "synflood"`, Info{Name: sweep.AttackSYNFlood, Summary: "dup"}, factory},
		{"empty-name", "attack: Register with empty name", Info{Summary: "anonymous"}, factory},
		{"nil-factory", `attack: Register("test-nil-factory") with nil factory`, Info{Name: "test-nil-factory"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("panic %v, want %q", got, tc.want)
				}
			}()
			Register(tc.info, tc.factory)
		})
	}
}

// TestLookupUnknownAttackErrors: an unknown name errors, naming itself and
// every registered attack, so the caller learns what exists.
func TestLookupUnknownAttackErrors(t *testing.T) {
	_, factory, err := Lookup("voodoo")
	if err == nil || factory != nil {
		t.Fatal("unknown attack resolved")
	}
	if !strings.Contains(err.Error(), `"voodoo"`) {
		t.Errorf("error does not name the unknown attack: %v", err)
	}
	if !strings.Contains(err.Error(), string(sweep.AttackConnFlood)) {
		t.Errorf("error does not list registered attacks: %v", err)
	}
	for _, info := range Infos() {
		if !strings.Contains(err.Error(), string(info.Name)) {
			t.Errorf("error does not list %q: %v", info.Name, err)
		}
	}
}
