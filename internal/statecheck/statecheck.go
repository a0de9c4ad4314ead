// Package statecheck compares and walks program state by reflection,
// for tests. Diff names the first field at which two values differ,
// reading unexported fields too, so a test can require a reset
// structure to equal a freshly built one field for field. Leaves visits
// every leaf of a configuration struct and Change perturbs one, so a
// test can require every field to reach an encoder's output.
//
// Both work on the type as it is declared now: a field added later is
// checked by the same test with no list to update, which is what lets
// these tests stand in for static field-coverage proofs. Allocs counts
// the heap allocations of one call exactly, so a test can require a
// warm path to allocate nothing over a long window.
package statecheck

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Diff returns "" when got and want hold the same state, and otherwise
// the path of the first difference with the two values there. It
// follows pointers and reads unexported fields. Slices compare element
// by element, except that an empty slice, nil or not, equals one whose
// elements are all zero: a fresh structure may leave nil a buffer that
// a reset one keeps allocated and zeroed, and either way every element
// reads as zero. Floats compare by bit pattern; funcs compare by code
// pointer, so two non-nil closures of one function are equal.
func Diff(got, want any) string {
	d := differ{seen: make(map[[2]uintptr]bool)}
	s := d.diff(reflect.ValueOf(got), reflect.ValueOf(want))
	if strings.HasPrefix(s, ":") {
		return "(root)" + s
	}
	return s
}

type differ struct {
	// seen holds the pointer pairs already compared or being compared,
	// so shared and cyclic structure is walked once.
	seen map[[2]uintptr]bool
}

// diff returns "" when g and w are equal, and otherwise the path from
// them to the first difference followed by ": got ..., want ...". Each
// level prepends its own selector on the way out, so equal state costs
// no string building.
func (d *differ) diff(g, w reflect.Value) string {
	if !g.IsValid() || !w.IsValid() {
		if g.IsValid() != w.IsValid() {
			return fmt.Sprintf(": got %s, want %s", show(g), show(w))
		}
		return ""
	}
	if g.Type() != w.Type() {
		return fmt.Sprintf(": got type %s, want %s", g.Type(), w.Type())
	}
	switch g.Kind() {
	case reflect.Struct:
		for i := 0; i < g.NumField(); i++ {
			if s := d.diff(g.Field(i), w.Field(i)); s != "" {
				return "." + g.Type().Field(i).Name + s
			}
		}
		return ""
	case reflect.Array:
		return d.elements(g, w)
	case reflect.Slice:
		switch {
		case g.Len() == 0 && w.Len() == 0:
			return ""
		case g.Len() == 0:
			return zero(w, "want", "got")
		case w.Len() == 0:
			return zero(g, "got", "want")
		case g.Len() != w.Len():
			return fmt.Sprintf(": got length %d, want %d", g.Len(), w.Len())
		}
		return d.elements(g, w)
	case reflect.Pointer, reflect.Interface:
		if g.IsNil() || w.IsNil() {
			if g.IsNil() != w.IsNil() {
				return fmt.Sprintf(": got %s, want %s", show(g), show(w))
			}
			return ""
		}
		if g.Kind() == reflect.Pointer {
			key := [2]uintptr{g.Pointer(), w.Pointer()}
			if key[0] == key[1] || d.seen[key] {
				return ""
			}
			d.seen[key] = true
		}
		return d.diff(g.Elem(), w.Elem())
	case reflect.Map:
		if g.Len() != w.Len() {
			return fmt.Sprintf(": got %d entries, want %d", g.Len(), w.Len())
		}
		keys := w.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return show(keys[i]) < show(keys[j]) })
		for _, k := range keys {
			gv := g.MapIndex(k)
			if !gv.IsValid() {
				return fmt.Sprintf("[%s]: missing, want %s", show(k), show(w.MapIndex(k)))
			}
			if s := d.diff(gv, w.MapIndex(k)); s != "" {
				return "[" + show(k) + "]" + s
			}
		}
		return ""
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if g.Pointer() != w.Pointer() {
			return fmt.Sprintf(": got %s %#x, want %#x", g.Kind(), g.Pointer(), w.Pointer())
		}
		return ""
	}
	if !scalarEqual(g, w) {
		return fmt.Sprintf(": got %s, want %s", show(g), show(w))
	}
	return ""
}

// elements compares two arrays or equal-length slices element-wise.
// Slices of numbers and bools, the bulk of a cache's state, are first
// compared as raw memory (the bit patterns scalarEqual compares), so
// only a difference costs a per-element walk.
func (d *differ) elements(g, w reflect.Value) string {
	if g.Kind() == reflect.Slice && plain(g.Type().Elem().Kind()) {
		n := uintptr(g.Len()) * g.Type().Elem().Size()
		if bytes.Equal(unsafe.Slice((*byte)(g.UnsafePointer()), n), unsafe.Slice((*byte)(w.UnsafePointer()), n)) {
			return ""
		}
	}
	for i := 0; i < g.Len(); i++ {
		if s := d.diff(g.Index(i), w.Index(i)); s != "" {
			return "[" + strconv.Itoa(i) + "]" + s
		}
	}
	return ""
}

// zero reports the first non-zero element of the non-empty slice v,
// held by side, when the other side's slice is empty.
func zero(v reflect.Value, side, other string) string {
	for i := 0; i < v.Len(); i++ {
		if !v.Index(i).IsZero() {
			return fmt.Sprintf("[%d]: %s %s, %s an empty slice", i, side, show(v.Index(i)), other)
		}
	}
	return ""
}

// plain reports whether values of kind k hold no pointers and no
// padding, so equal bit patterns mean equal values.
func plain(k reflect.Kind) bool {
	return k >= reflect.Bool && k <= reflect.Complex128
}

// scalarEqual compares two values of one basic kind.
func scalarEqual(g, w reflect.Value) bool {
	switch g.Kind() {
	case reflect.Bool:
		return g.Bool() == w.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return g.Int() == w.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return g.Uint() == w.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(g.Float()) == math.Float64bits(w.Float())
	case reflect.String:
		return g.String() == w.String()
	}
	panic("statecheck: unhandled kind " + g.Kind().String())
}

// show renders a value for a diff message without calling Interface,
// which unexported fields forbid.
func show(v reflect.Value) string {
	if !v.IsValid() {
		return "<invalid>"
	}
	switch v.Kind() {
	case reflect.Bool:
		return fmt.Sprint(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprint(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return fmt.Sprint(v.Uint())
	case reflect.Float32, reflect.Float64:
		return fmt.Sprint(v.Float())
	case reflect.String:
		return fmt.Sprintf("%q", v.String())
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return "nil"
		}
		if v.Kind() == reflect.Slice || v.Kind() == reflect.Map {
			return fmt.Sprintf("%s of length %d", v.Type(), v.Len())
		}
		return "non-nil " + v.Type().String()
	}
	return v.Type().String() + " value"
}

// Leaves calls visit with the path and the settable value of every
// leaf of the struct p points to. A leaf is a field that is not itself
// a struct; struct fields, embedded ones included, are descended into.
// Where a leaf holds a pointer, slice or map once visit returns, Leaves
// goes on into the pointed-to value, each slice element and each map
// value, so a visit that allocates a nil leaf (Change does) also
// reaches the fields within. It panics on an unexported field, which a
// test can neither set nor perturb.
func Leaves(p any, visit func(path string, v reflect.Value)) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("statecheck: Leaves needs a pointer to a struct, got %T", p))
	}
	leaves("", v.Elem(), visit)
}

func leaves(path string, v reflect.Value, visit func(string, reflect.Value)) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("statecheck: unexported field %s in %s", f.Name, v.Type()))
			}
			name := f.Name
			if path != "" {
				name = path + "." + f.Name
			}
			leaves(name, v.Field(i), visit)
		}
		return
	}
	visit(path, v)
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(path, v.Elem(), visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leaves(fmt.Sprintf("%s[%d]", path, i), v.Index(i), visit)
		}
	case reflect.Map:
		// Map values are not addressable: walk a copy and store it back.
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			leaves(path+"["+show(k)+"]", e, visit)
			v.SetMapIndex(k, e)
		}
	}
}

// Change sets the settable value v to a different value of its type:
// it flips a bool, adds one to a number, appends to a string, points a
// nil pointer at a new zero value, gives a nil slice one zero element
// and a nil map one entry under a changed zero key, and sets a non-nil
// pointer, slice or map to nil.
func Change(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if !v.IsNil() {
			v.SetZero()
			return
		}
		switch t := v.Type(); t.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(t.Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(t, 1, 1))
		default:
			k := reflect.New(t.Key()).Elem()
			Change(k)
			m := reflect.MakeMap(t)
			m.SetMapIndex(k, reflect.Zero(t.Elem()))
			v.Set(m)
		}
	default:
		panic("statecheck: cannot change a " + v.Kind().String())
	}
}
