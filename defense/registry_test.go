package defense

import (
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestRegistryCompleteness is the CI contract: every sweep.Defense enum
// value resolves to a registered plugin, and every registered plugin is a
// declared enum value — the grid vocabulary and the registry can never
// drift apart.
func TestRegistryCompleteness(t *testing.T) {
	known := map[sweep.Defense]bool{}
	for _, name := range sweep.KnownDefenses() {
		known[name] = true
		info, _, err := Lookup(name)
		if err != nil {
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

// TestRegisterRejectsBadRegistrations: Register keys the package's
// registry by Info.Name, so a second plugin under a built-in name, a
// nameless plugin and a nil factory panic at init time.
func TestRegisterRejectsBadRegistrations(t *testing.T) {
	factory := func(ServerCtx) Defense { return noneDefense{} }
	for _, tc := range []struct {
		name, want string
		info       Info
		factory    Factory
	}{
		{"duplicate-name", `defense: duplicate registration of "none"`, Info{Name: sweep.DefenseNone, Summary: "dup"}, factory},
		{"empty-name", "defense: Register with empty name", Info{Summary: "anonymous"}, factory},
		{"nil-factory", `defense: Register("test-nil-factory") with nil factory`, Info{Name: "test-nil-factory"}, nil},
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

// TestLookupUnknownDefenseErrors: an unknown name errors, naming itself and
// every registered defense, so the caller learns what exists.
func TestLookupUnknownDefenseErrors(t *testing.T) {
	_, factory, err := Lookup("voodoo")
	if err == nil || factory != nil {
		t.Fatal("unknown defense resolved")
	}
	if !strings.Contains(err.Error(), `"voodoo"`) {
		t.Errorf("error does not name the unknown defense: %v", err)
	}
	if !strings.Contains(err.Error(), string(sweep.DefensePuzzles)) {
		t.Errorf("error does not list registered defenses: %v", err)
	}
	for _, info := range Infos() {
		if !strings.Contains(err.Error(), string(info.Name)) {
			t.Errorf("error does not list %q: %v", info.Name, err)
		}
	}
}
