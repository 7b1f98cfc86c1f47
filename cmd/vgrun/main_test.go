package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins that every flag -attr-diff would silently ignore,
// and -attr-csv without -attr-diff, is a usage error naming the flag,
// while the combinations that take effect pass.
func TestCheckFlags(t *testing.T) {
	for _, name := range append([]string{"transform"}, attrDiffIgnores...) {
		err := checkFlags(map[string]bool{"attr-diff": true, name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-attr-diff -%s: error %v, want one naming -%s", name, err, name)
		}
		if err := checkFlags(map[string]bool{name: true}); err != nil {
			t.Errorf("-%s alone: %v", name, err)
		}
		// A flag given at its default value changes nothing.
		if err := checkFlags(map[string]bool{"attr-diff": true, name: false}); err != nil {
			t.Errorf("-attr-diff with -%s at its default: %v", name, err)
		}
	}
	if err := checkFlags(map[string]bool{"attr-csv": true}); err == nil || !strings.Contains(err.Error(), "-attr-csv") {
		t.Errorf("-attr-csv without -attr-diff: error %v, want one naming -attr-csv", err)
	}
	for _, ok := range []map[string]bool{
		{"attr-diff": true, "attr-csv": true, "width": true, "attr": true, "no-cache": true},
		{"transform": true, "json": true, "attr": true, "pipeview": true, "trace": true},
		{},
	} {
		if err := checkFlags(ok); err != nil {
			t.Errorf("%v: unexpected error %v", ok, err)
		}
	}
}
