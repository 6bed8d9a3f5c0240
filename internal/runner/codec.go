package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"

	"loadsched/internal/ooo"
)

// Key text and store payload.
//
// ConfigKey and StoreKey render their structs through one reflection walker
// over a field plan built once per type at package init. The text holds
// values only, in declaration order: integers in decimal, bools, quoted
// strings, floats as the 16 hex digits of their IEEE-754 bits, integer
// types with a String method by name (so reordering an enum's constants
// cannot make two machines share a key), and nested structs in braces. A
// nil pointer, interface, func, map, slice or channel is written "-"; a
// non-nil one makes the value unrenderable. Field names and types are left
// out of every key and folded instead into schemaFingerprint, which
// prefixes every store key, so a build whose structs differ in shape never
// reads another's entries.
//
// A key is built in an array on its caller's stack and copied once into the
// key string, so rendering one costs a single allocation of exactly the
// key's size.

// leaf says how the walker renders one struct field.
type leaf uint8

const (
	leafInt leaf = iota
	leafUint
	leafFloat
	leafBool
	leafString
	leafName   // an integer type with a String method: its name
	leafStruct // a nested struct: its fields in braces
	leafRef    // pointer, interface, func, map, slice or channel: must be nil
)

// fieldPlan is the rendering plan of one struct field.
type fieldPlan struct {
	leaf leaf
	sub  []fieldPlan // the nested struct's fields, for leafStruct
}

// stringer is fmt.Stringer, declared here so key text needs no fmt.
type stringer interface{ String() string }

var stringerType = reflect.TypeOf((*stringer)(nil)).Elem()

// planOf builds the field plan of struct type t. It panics on a field kind
// the key text has no rendering for (arrays, complex numbers, unsafe
// pointers): the plans are built at package init, so adding such a field
// to a keyed struct fails every test run until the walker learns it.
func planOf(t reflect.Type) []fieldPlan {
	plan := make([]fieldPlan, t.NumField())
	for i := range plan {
		f := t.Field(i)
		switch k := f.Type.Kind(); {
		case k >= reflect.Int && k <= reflect.Uint64 && f.IsExported() && f.Type.Implements(stringerType):
			plan[i].leaf = leafName
		case k >= reflect.Int && k <= reflect.Int64:
			plan[i].leaf = leafInt
		case k >= reflect.Uint && k <= reflect.Uintptr:
			plan[i].leaf = leafUint
		case k == reflect.Float32 || k == reflect.Float64:
			plan[i].leaf = leafFloat
		case k == reflect.Bool:
			plan[i].leaf = leafBool
		case k == reflect.String:
			plan[i].leaf = leafString
		case k == reflect.Struct:
			plan[i] = fieldPlan{leaf: leafStruct, sub: planOf(f.Type)}
		case k == reflect.Pointer || k == reflect.Interface || k == reflect.Func ||
			k == reflect.Map || k == reflect.Slice || k == reflect.Chan:
			plan[i].leaf = leafRef
		default:
			panic("runner: key text cannot render " + t.String() + "." + f.Name + " of kind " + k.String())
		}
	}
	return plan
}

var (
	configPlan = planOf(reflect.TypeOf(ooo.Config{}))
	keyPlan    = planOf(reflect.TypeOf(Key{}))
)

// keyScratch sizes the stack array a key is built in: store keys run to
// about 570 bytes. A longer key still renders, through one extra heap
// allocation.
const keyScratch = 1024

// appendText appends the key text of struct value v, rendered by its plan,
// to b. It reports false, having appended only part of v, when a reference
// field is non-nil.
func appendText(b []byte, v reflect.Value, plan []fieldPlan) ([]byte, bool) {
	b = append(b, '{')
	for i, f := range plan {
		if i > 0 {
			b = append(b, ' ')
		}
		fv := v.Field(i)
		switch f.leaf {
		case leafInt:
			b = strconv.AppendInt(b, fv.Int(), 10)
		case leafUint:
			b = strconv.AppendUint(b, fv.Uint(), 10)
		case leafFloat:
			// The exact bits, so -0 and +0, or two NaN payloads, never
			// share a key.
			var bits [8]byte
			binary.BigEndian.PutUint64(bits[:], math.Float64bits(fv.Float()))
			b = hex.AppendEncode(b, bits[:])
		case leafBool:
			b = strconv.AppendBool(b, fv.Bool())
		case leafString:
			b = appendQuoted(b, fv.String())
		case leafName:
			b = append(b, fv.Interface().(stringer).String()...)
		case leafStruct:
			var ok bool
			if b, ok = appendText(b, fv, f.sub); !ok {
				return b, false
			}
		case leafRef:
			if !fv.IsNil() {
				return b, false
			}
			b = append(b, '-')
		}
	}
	return append(b, '}'), true
}

// appendQuoted appends s between double quotes, backslash-escaping only '"'
// and '\': enough for the string's end to be unambiguous whatever bytes it
// holds.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	run := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' {
			b = append(append(b, s[run:i]...), '\\')
			run = i
		}
	}
	return append(append(b, s[run:]...), '"')
}

// schemaFingerprint folds the field names and types of everything a store
// entry depends on into 16 hex digits: the machine configuration and the
// memo key (with its trace profile), whose key text carries no field
// names, and the statistics the payload lays out word by word.
var schemaFingerprint = fingerprint(reflect.TypeOf(ooo.Config{}), reflect.TypeOf(Key{}), reflect.TypeOf(ooo.Stats{}))

func fingerprint(types ...reflect.Type) string {
	h := fnv.New64a()
	var describe func(t reflect.Type)
	describe = func(t reflect.Type) {
		h.Write([]byte(t.String()))
		if t.Kind() != reflect.Struct {
			return
		}
		h.Write([]byte("{"))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			h.Write([]byte(f.Name + " "))
			describe(f.Type)
			h.Write([]byte(";"))
		}
		h.Write([]byte("}"))
	}
	for _, t := range types {
		describe(t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeStats lays st out as the store payload: its counters in
// declaration order as little-endian 8-byte words, 34 of them (272 bytes)
// for the current ooo.Stats. It fails only if Stats gains a field of no
// fixed size.
func encodeStats(st *ooo.Stats) ([]byte, error) {
	var b bytes.Buffer
	err := binary.Write(&b, binary.LittleEndian, st)
	return b.Bytes(), err
}

// decodeStats fills st from a store payload, which must be exactly
// binary.Size(st) bytes long; any other length reports false and leaves st
// untouched.
func decodeStats(b []byte, st *ooo.Stats) bool {
	return len(b) == binary.Size(st) && binary.Read(bytes.NewReader(b), binary.LittleEndian, st) == nil
}
