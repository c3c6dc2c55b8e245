package sched

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// Key is a content-addressed cache key: a digest of every input that
// determines the cached artifact (workload seed and generator parameters,
// compiler configuration, machine configuration, window sizes, ...).
type Key [sha256.Size]byte

// KeyOf fingerprints its arguments into a Key: the SHA-256 of the parts'
// renderings, each followed by a NUL byte, so two keys collide only when
// every configuration input is identical. A part renders exactly as fmt's
// %#v prints it, byte for byte, but the rendering is done here, not by fmt:
// each type's encoder is compiled once by reflection and cached, and a call
// only walks the values. The bytes stay those of %#v because build span ids
// are addressed by them.
//
// The walk also enforces the keyable grammar on every call: booleans,
// numbers, strings, nil pointers and nil interfaces, and arrays, structs
// and interfaces holding those. KeyOf panics (a programming error, not a
// runtime condition) on anything else, naming the field path: a slice, map,
// channel or func, a non-nil pointer (%#v renders its address, so the key
// would differ from run to run), untyped nil, or a value whose type formats
// itself through fmt.Formatter or fmt.GoStringer where fmt would call that
// method. The pointer rule means that what a measurement build attaches
// to a config after keying (the telemetry sink, trrip's temperature hints)
// can never enter a key.
func KeyOf(parts ...any) Key {
	w := keyWriters.Get().(*keyWriter)
	w.b = w.b[:0]
	for i, p := range parts {
		if err := w.part(p); err != nil {
			panic(fmt.Sprintf("sched: KeyOf part %d violates the key contract: %v", i, err))
		}
		w.b = append(w.b, 0)
	}
	k := Key(sha256.Sum256(w.b))
	keyWriters.Put(w)
	return k
}

// keyWriters recycles KeyOf's rendering buffers: every memo lookup, hit or
// miss, computes a key.
var keyWriters = sync.Pool{New: func() any { return new(keyWriter) }}

// AssertKeyable reports whether v may appear in a KeyOf part, by the same
// walk KeyOf renders with: only plain data (booleans, integers, floats,
// complex numbers, strings, and arrays and structs thereof) is keyable.
// Maps, slices, channels, funcs and non-nil pointers, at any nesting depth
// and exported or not, are rejected; a nil pointer is allowed because it
// renders as the deterministic "(*T)(nil)". The error names the path to the
// offending field.
func AssertKeyable(v any) error {
	var w keyWriter
	return w.part(v)
}

// keyWriter appends the %#v rendering of key parts to b.
type keyWriter struct{ b []byte }

// keyError is a keyable-grammar violation; path grows as the walk unwinds.
type keyError struct{ path, msg string }

func (e *keyError) Error() string { return e.path + ": " + e.msg }

// part appends one top-level key part.
func (w *keyWriter) part(p any) error {
	if p == nil {
		return fmt.Errorf("untyped nil is not keyable")
	}
	v := reflect.ValueOf(p)
	if err := w.encode(codecOf(v.Type(), false), v); err != nil {
		err.path = v.Type().String() + err.path
		return err
	}
	return nil
}

// A codec is one type's compiled encoding: everything %#v prints besides
// the values themselves (type names, field labels, nil forms) and every
// check that depends on the type alone, built once per type by reflection.
type codec struct {
	kind   reflect.Kind
	reject string // values of this type are not keyable: the reason
	bits   int    // float and complex: bits of one component
	form   string // array: "T{"; empty struct: "T{}"; pointer, interface: nil form
	live   string // pointer: the error for a non-nil value
	hidden bool   // interface: reached through an unexported field
	elem   *codec // array element
	n      int    // array length
	fields []fieldCodec
}

// fieldCodec is one struct field: label is what %#v prints before its
// value ("T{Name:" for the first field, ", Name:" for the others).
type fieldCodec struct {
	label, name string
	c           *codec
}

// codecs maps reflect.Type to *codec; index 1 holds the codecs of types
// reached through an unexported field (hidden), where fmt does not call a
// value's Formatter or GoStringer method.
var codecs [2]sync.Map

func codecOf(t reflect.Type, hidden bool) *codec {
	m := &codecs[0]
	if hidden {
		m = &codecs[1]
	}
	if c, ok := m.Load(t); ok {
		return c.(*codec)
	}
	c, _ := m.LoadOrStore(t, newCodec(t, hidden))
	return c.(*codec)
}

var (
	formatterType  = reflect.TypeFor[fmt.Formatter]()
	goStringerType = reflect.TypeFor[fmt.GoStringer]()
)

// newCodec compiles t. The codecs of array elements and struct fields are
// compiled with it; an interface's dynamic type is looked up per value.
func newCodec(t reflect.Type, hidden bool) *codec {
	c := &codec{kind: t.Kind(), hidden: hidden}
	if c.kind != reflect.Interface && !hidden && t.NumMethod() > 0 &&
		(t.Implements(formatterType) || t.Implements(goStringerType)) {
		// fmt would print whatever the method returns.
		c.reject = fmt.Sprintf("%s formats itself (fmt.Formatter or fmt.GoStringer)", t)
		return c
	}
	switch c.kind {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Float32, reflect.Float64:
		c.bits = t.Bits()
	case reflect.Complex64, reflect.Complex128:
		c.bits = t.Bits() / 2
	case reflect.Pointer:
		c.form = "(" + t.String() + ")(nil)"
		c.live = fmt.Sprintf("non-nil pointer (%s) — %%#v would hash its address", t)
	case reflect.Interface:
		c.form = t.String() + "(nil)"
	case reflect.Array:
		c.form, c.n = t.String()+"{", t.Len()
		c.elem = codecOf(t.Elem(), hidden)
	case reflect.Struct:
		c.form = t.String() + "{}"
		c.fields = make([]fieldCodec, t.NumField())
		for i := range c.fields {
			f := t.Field(i)
			sep := ", "
			if i == 0 {
				sep = t.String() + "{"
			}
			c.fields[i] = fieldCodec{sep + f.Name + ":", f.Name, codecOf(f.Type, hidden || !f.IsExported())}
		}
	default:
		// Slice, Map, Chan, Func, UnsafePointer, Uintptr. The error is
		// raised only when a value is visited: [0][]int renders "[0][]int{}".
		c.reject = fmt.Sprintf("%s is not keyable", c.kind)
	}
	return c
}

// encode appends v, a value of c's type, as %#v prints it.
func (w *keyWriter) encode(c *codec, v reflect.Value) *keyError {
	if c.reject != "" {
		return &keyError{msg: c.reject}
	}
	switch c.kind {
	case reflect.Bool:
		w.b = strconv.AppendBool(w.b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.b = strconv.AppendInt(w.b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.b = appendHex(w.b, v.Uint())
	case reflect.Float32, reflect.Float64:
		w.b = appendFloat(w.b, v.Float(), c.bits)
	case reflect.Complex64, reflect.Complex128:
		z := v.Complex()
		w.b = appendFloat(append(w.b, '('), real(z), c.bits)
		// The imaginary part always carries a sign, NaN included.
		var tmp [32]byte
		im := appendFloat(tmp[:0], imag(z), c.bits)
		if im[0] != '+' && im[0] != '-' {
			w.b = append(w.b, '+')
		}
		w.b = append(append(w.b, im...), "i)"...)
	case reflect.String:
		w.b = strconv.AppendQuote(w.b, v.String())
	case reflect.Pointer:
		if !v.IsNil() {
			return &keyError{msg: c.live}
		}
		w.b = append(w.b, c.form...)
	case reflect.Interface:
		if v.IsNil() {
			w.b = append(w.b, c.form...)
			break
		}
		e := v.Elem()
		if err := w.encode(codecOf(e.Type(), c.hidden), e); err != nil {
			err.path = ".(" + e.Type().String() + ")" + err.path
			return err
		}
	case reflect.Array:
		w.b = append(w.b, c.form...)
		for i := 0; i < c.n; i++ {
			if i > 0 {
				w.b = append(w.b, ", "...)
			}
			if err := w.encode(c.elem, v.Index(i)); err != nil {
				err.path = "[" + strconv.Itoa(i) + "]" + err.path
				return err
			}
		}
		w.b = append(w.b, '}')
	case reflect.Struct:
		if len(c.fields) == 0 {
			w.b = append(w.b, c.form...)
			break
		}
		for i := range c.fields {
			f := &c.fields[i]
			w.b = append(w.b, f.label...)
			if err := w.encode(f.c, v.Field(i)); err != nil {
				err.path = "." + f.name + err.path
				return err
			}
		}
		w.b = append(w.b, '}')
	}
	return nil
}

// appendHex appends u as %#v prints unsigned integers: 0x and lowercase hex.
func appendHex(b []byte, u uint64) []byte {
	if u < 16 {
		return append(b, '0', 'x', "0123456789abcdef"[u])
	}
	return strconv.AppendUint(append(b, "0x"...), u, 16)
}

// appendFloat appends f as %#v prints a float of the given bit size; zeros,
// the common case in machine configurations, skip the shortest-digit search.
func appendFloat(b []byte, f float64, bits int) []byte {
	if f == 0 {
		if math.Signbit(f) {
			return append(b, "-0"...)
		}
		return append(b, '0')
	}
	return strconv.AppendFloat(b, f, 'g', -1, bits)
}
