package main

import (
	"strings"
	"testing"
)

func TestCacheMaxBytesNeedsValidCacheDir(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tab1", "-cache-max-bytes", "1000"}, "needs -cache-dir"},
		{[]string{"-exp", "tab1", "-cache-dir", t.TempDir(), "-cache-max-bytes", "-1"}, "positive size"},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}
