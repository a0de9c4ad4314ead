// Package keycover is the golden fixture for the cache-key coverage
// proof. canonical is the annotated key renderer over Config (with the
// nested Latencies reached through an alias, a justified exemption, a
// planted un-hashed field, a stale exemption, and a duplicated write);
// Encode is the marshal-mode encoder over Manifest, where passing the
// whole value covers every exported field not tagged json:"-".
package keycover

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Latencies is nested configuration, reached via Config.Lat.
type Latencies struct {
	L1  int
	Mem int
}

// Config is the cache-key closure.
type Config struct {
	Size int
	Ways int
	Lat  Latencies

	// Scratch is derived state, rebuilt from Size/Ways at load time.
	//tlavet:keyexempt derived scratch state, rebuilt from Size and Ways
	Scratch []int

	// Fresh is the planted un-hashed field the acceptance criteria
	// require: added to the struct, never encoded, never exempted.
	Fresh int // want `field keycover\.Config\.Fresh is never written by keycover\.canonical and has no //tlavet:keyexempt \(via keycover\.Key → keycover\.canonical\)`

	// Dup is hashed twice below; the second write is dead weight.
	Dup int

	// Phase claims to be an observer field, but canonical writes it.
	//tlavet:keyexempt observer-only phase marker
	Phase int // want `stale //tlavet:keyexempt: field keycover\.Config\.Phase IS written by keycover\.canonical`

	// Cold carries a reasonless exemption, which exempts nothing.
	//tlavet:keyexempt
	Cold int // want `keyexempt directive has no reason` `field keycover\.Config\.Cold is never written by keycover\.canonical and has no //tlavet:keyexempt \(via keycover\.Key → keycover\.canonical\)`
}

// Key is the exported entry point; findings carry the Key → canonical
// chain.
func Key(c Config) string { return canonical(c) }

// canonical renders the fixed-order canonical form of the key.
//
//tlavet:keycover Config
func canonical(c Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d", c.Size, c.Ways)
	l := c.Lat
	fmt.Fprintf(&b, "|%d/%d", l.L1, l.Mem)
	fmt.Fprintf(&b, "|%d|%d", c.Dup, c.Phase)
	fmt.Fprintf(&b, "|%d", c.Dup) // want `field keycover\.Config\.Dup is written 2 times by keycover\.canonical: the extra write is dead or double-encodes the field`
	return b.String()
}

// Manifest is persisted as marshalled JSON.
type Manifest struct {
	Key  string `json:"key"`
	Spec Config `json:"spec"`

	// scratch is invisible to the marshaller, so marshal mode cannot
	// cover it and it needs an exemption it does not have.
	scratch int // want `field keycover\.Manifest\.scratch is never written by keycover\.Encode and has no //tlavet:keyexempt \(via keycover\.Encode\)`

	// Wall is execution metadata, excluded from the stored form.
	//tlavet:keyexempt execution metadata, not part of the result identity
	Wall float64 `json:"-"`
}

// Encode marshals the whole manifest: marshal mode covers every
// exported field not tagged json:"-", recursively through Spec.
//
//tlavet:keycover Manifest
func Encode(m Manifest) ([]byte, error) {
	return json.Marshal(m)
}

// badTarget points at a package this module does not contain.
//
//tlavet:keycover missing.Type
func badTarget() {} // want `keycover: no module package named missing \(in missing\.Type\)`

// emptyTarget forgets to say what it covers.
//
//tlavet:keycover
func emptyTarget() {} // want `keycover directive names no type`

// Delays is embedded by Timing: embedded fields are tracked like named
// ones.
type Delays struct {
	Hit  int
	Miss int // want `field keycover\.Delays\.Miss is never written by keycover\.timingKey and has no //tlavet:keyexempt \(via keycover\.timingKey\)`
}

// Timing embeds Delays. The promoted t.Hit covers both the embedded
// field Timing.Delays and Delays.Hit; Miss is never written.
type Timing struct {
	Delays
	Width int
}

// timingKey renders Timing through a promoted selector.
//
//tlavet:keycover Timing
func timingKey(t Timing) string {
	return fmt.Sprintf("%d|%d", t.Hit, t.Width)
}
