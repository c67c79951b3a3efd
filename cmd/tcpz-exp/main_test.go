package main

import (
	"io"
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sim"
)

func TestCacheMaxBytesNeedsValidCacheDir(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tab1", "-cache-max-bytes", "1000"}, "needs -cache-dir"},
		{[]string{"-exp", "tab1", "-cache-dir", t.TempDir(), "-cache-max-bytes", "-1"}, "positive size"},
	} {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// The plugin listings print every registered defense and attack, each
// with its summary, under its own heading.
func TestListDefensesAndAttacks(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-defenses", "-list-attacks"}, &out); err != nil {
		t.Fatal(err)
	}
	defenses, attacks, ok := strings.Cut(out.String(), "attacks:\n")
	if !ok || !strings.HasPrefix(defenses, "defenses:\n") {
		t.Fatalf("listing lacks its headings:\n%s", out.String())
	}
	check := func(listing, name, summary string) {
		t.Helper()
		for _, line := range strings.Split(listing, "\n") {
			if fields := strings.Fields(line); len(fields) > 0 && fields[0] == name {
				if got := strings.Join(fields[1:], " "); got != summary {
					t.Errorf("%s: summary %q, registry says %q", name, got, summary)
				}
				return
			}
		}
		t.Errorf("%s missing from listing:\n%s", name, listing)
	}
	for _, info := range sim.DefenseInfos() {
		check(defenses, string(info.Name), info.Summary)
	}
	for _, info := range sim.AttackInfos() {
		check(attacks, string(info.Name), info.Summary)
	}
	if n := strings.Count(out.String(), "\n"); n != 2+len(sim.DefenseInfos())+len(sim.AttackInfos()) {
		t.Errorf("listing has %d lines, want a heading and one line per plugin:\n%s", n, out.String())
	}
}
