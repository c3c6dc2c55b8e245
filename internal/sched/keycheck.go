package sched

import (
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
)

// The KeyOf contract (memo.go) requires keyed parts to be plain values: %#v
// renders a pointer field as its address, so a key containing a live pointer
// would differ from run to run and silently defeat the cache — or worse,
// collide for distinct configurations. The contract was documented but
// unchecked; this file is the reflection-based debug assertion that enforces
// it.
//
// The walk costs reflection on every KeyOf call, so it is off by default and
// enabled in tests (and by CRITICS_CHECK_KEYS=1 in the environment) via
// EnableKeyChecks.

// debugKeyChecks gates the per-KeyOf assertion.
var debugKeyChecks atomic.Bool

func init() {
	if os.Getenv("CRITICS_CHECK_KEYS") != "" {
		debugKeyChecks.Store(true)
	}
}

// EnableKeyChecks turns the KeyOf keyability assertion on or off. While on,
// KeyOf panics when handed a part the contract forbids — the failure names
// the offending field path, so the misuse is caught at the call site instead
// of surfacing later as a nondeterministic cache.
func EnableKeyChecks(on bool) { debugKeyChecks.Store(on) }

// AssertKeyable reports whether v may appear in a KeyOf part: only plain
// data — booleans, integers, floats, complex numbers, strings, and arrays
// and structs thereof — is keyable. Maps, slices, channels, funcs and
// non-nil pointers (at any nesting depth, exported or not) are rejected; a
// nil pointer is allowed because %#v renders it as the deterministic
// "(*T)(nil)". The error names the path to the offending field.
func AssertKeyable(v any) error {
	if v == nil {
		return fmt.Errorf("untyped nil is not keyable")
	}
	return keyable(reflect.ValueOf(v), reflect.TypeOf(v).String())
}

func keyable(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return nil
	case reflect.Pointer:
		if v.IsNil() {
			return nil // renders as the stable "(*T)(nil)"
		}
		return fmt.Errorf("%s: non-nil pointer (%s) — %%#v would hash its address", path, v.Type())
	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return keyable(v.Elem(), path+".("+v.Elem().Type().String()+")")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := keyable(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if err := keyable(v.Field(i), path+"."+t.Field(i).Name); err != nil {
				return err
			}
		}
		return nil
	default:
		// Slice, Map, Chan, Func, UnsafePointer, Uintptr.
		return fmt.Errorf("%s: %s is not keyable", path, v.Kind())
	}
}

// checkKeyParts is KeyOf's debug hook: panic (programming error, not a
// runtime condition) on the first unkeyable part.
func checkKeyParts(parts []any) {
	for i, p := range parts {
		if err := AssertKeyable(p); err != nil {
			panic(fmt.Sprintf("sched: KeyOf part %d violates the key contract: %v", i, err))
		}
	}
}
