package sched

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type keyableStruct struct {
	A int
	B string
	C [2]float64
	D struct{ E bool }
	p *int // nil in the keyable cases
}

// goStringer formats itself under %#v, so KeyOf cannot render it by the
// keyable grammar where fmt would call its method.
type goStringer int

func (goStringer) GoString() string { return "goStringer" }

func TestAssertKeyable(t *testing.T) {
	x := 7
	cases := []struct {
		name string
		v    any
		bad  string // "" = keyable; otherwise a substring of the error
	}{
		{"int", 42, ""},
		{"string", "prog", ""},
		{"float", 3.5, ""},
		{"bool", true, ""},
		{"array", [3]int{1, 2, 3}, ""},
		{"plain struct", keyableStruct{A: 1, B: "x"}, ""},
		{"nil pointer field", keyableStruct{}, ""},
		{"untyped nil", nil, "untyped nil"},
		{"slice", []int{1}, "not keyable"},
		{"map", map[string]int{}, "not keyable"},
		{"chan", make(chan int), "not keyable"},
		{"func", func() {}, "not keyable"},
		{"non-nil pointer", &x, "non-nil pointer"},
		{"struct with live pointer", keyableStruct{p: &x}, "keyableStruct.p"},
		{"struct with slice field", struct{ S []int }{S: []int{1}}, ".S"},
		{"nested array of structs", [1]struct{ M map[int]int }{{M: map[int]int{}}}, ".M"},
		{"self-formatting", goStringer(1), "formats itself"},
		{"self-formatting field", struct{ G goStringer }{}, ".G"},
		{"unexported self-formatting field", struct{ g goStringer }{}, ""},
	}
	for _, c := range cases {
		err := AssertKeyable(c.v)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		} else if !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.bad)
		}
	}
}

// TestKeyOfChecked locks the always-on contract check: KeyOf hashes plain
// parts, and panics on a contract violation with the offending field path.
func TestKeyOfChecked(t *testing.T) {
	a := KeyOf("prog", keyableStruct{A: 1})
	b := KeyOf("prog", keyableStruct{A: 2})
	if a == b {
		t.Fatal("distinct parts hashed to the same key")
	}

	panicMsg := func(parts ...any) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		KeyOf(parts...)
		return
	}
	if msg := panicMsg("bad", []int{1, 2}); !strings.Contains(msg, "part 1") || !strings.Contains(msg, "not keyable") {
		t.Errorf("KeyOf with a slice part: panic %q, want part 1 named not keyable", msg)
	}
	x := 7
	if msg := panicMsg("bad", keyableStruct{p: &x}); !strings.Contains(msg, "keyableStruct.p") {
		t.Errorf("KeyOf with a live pointer field: panic %q, want the path keyableStruct.p", msg)
	}
}

// TestKeyOfConcurrent keys values of types no other test compiles from
// several goroutines at once: every goroutine gets the key of the same
// rendering while the codecs are compiled and published under it.
func TestKeyOfConcurrent(t *testing.T) {
	type inner struct {
		N uint32
		F float32
	}
	part := struct {
		Ranges [64]inner
		Any    any
	}{Any: [2]inner{{N: 7}}}
	want := fmt.Sprintf("%#v\x00", part)
	keys := make([]Key, 8)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = KeyOf(part)
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if k != Key(sha256.Sum256([]byte(want))) {
			t.Errorf("goroutine %d: key differs from the SHA-256 of the %%#v rendering", i)
		}
	}
}
