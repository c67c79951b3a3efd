package registry

import (
	"reflect"
	"testing"
)

type info struct{ name, summary string }

// newTest registers five plugins out of name order: no rotation of the
// insertion order is sorted, so a listing in map order cannot pass the
// sort checks below by chance.
func newTest() *Registry[string, info, int, int] {
	r := New[string, info, int, int]("widget")
	for _, name := range []string{"d", "b", "e", "a", "c"} {
		r.Register(name, info{name, name + " widget"}, func(x int) int { return x })
	}
	return r
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Errorf("panic %v, want %q", got, want)
		}
	}()
	fn()
}

// TestRegisterRejectsBadRegistrations: a duplicate name, an empty name
// and a nil factory are programmer errors and panic at registration.
func TestRegisterRejectsBadRegistrations(t *testing.T) {
	r := newTest()
	id := func(x int) int { return x }
	t.Run("duplicate-name", func(t *testing.T) {
		mustPanic(t, `widget: duplicate registration of "c"`, func() {
			r.Register("c", info{summary: "dup"}, id)
		})
	})
	t.Run("empty-name", func(t *testing.T) {
		mustPanic(t, "widget: Register with empty name", func() {
			r.Register("", info{summary: "anonymous"}, id)
		})
	})
	t.Run("nil-factory", func(t *testing.T) {
		mustPanic(t, `widget: Register("f") with nil factory`, func() {
			r.Register("f", info{name: "f"}, nil)
		})
	})
	if len(r.Infos()) != 5 {
		t.Errorf("a rejected registration was kept: %v", r.Infos())
	}
}

// TestLookup: a registered name resolves to its own info and factory; an
// unknown one errors, naming itself and every registered name in order,
// so the caller learns what exists.
func TestLookup(t *testing.T) {
	r := newTest()
	t.Run("known", func(t *testing.T) {
		got, factory, err := r.Lookup("b")
		if err != nil || got != (info{"b", "b widget"}) || factory(7) != 7 {
			t.Errorf(`Lookup("b") = %v, factory, %v`, got, err)
		}
	})
	t.Run("unknown", func(t *testing.T) {
		_, factory, err := r.Lookup("voodoo")
		if factory != nil {
			t.Error("unknown name resolved to a factory")
		}
		const want = `widget: unknown widget "voodoo" (registered: a, b, c, d, e)`
		if err == nil || err.Error() != want {
			t.Errorf("unknown name: error %v, want %q", err, want)
		}
	})
}

// TestInfosSortedByName: listings come out in name order whatever the
// registration order. Map iteration order is drawn afresh on every
// range, so the check repeats.
func TestInfosSortedByName(t *testing.T) {
	r := newTest()
	want := []info{{"a", "a widget"}, {"b", "b widget"}, {"c", "c widget"}, {"d", "d widget"}, {"e", "e widget"}}
	for range 20 {
		if got := r.Infos(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Infos() = %v, want %v", got, want)
		}
	}
}
