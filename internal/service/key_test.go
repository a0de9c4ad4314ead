package service

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"tlacache/internal/hierarchy"
	"tlacache/internal/replacement"
	"tlacache/internal/sim"
	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
)

// goldenKeys pins the canonical hash of known requests. If this test
// fails without an intentional schema change, the Key function has
// drifted and would silently orphan (or worse, misattribute) every
// existing cache entry; if the change is intentional, bump KeyVersion
// and repin.
func TestKeyGolden(t *testing.T) {
	base := sim.DefaultConfig(2)
	qbs := base
	qbs.Hierarchy.TLA = hierarchy.TLAQBS
	qbs.Hierarchy.QBSProbe = hierarchy.AllCaches
	// Kinds enter the canonical form by number, so these pin DIP == 102
	// and DRRIP == 201.
	dip, drrip := base, base
	dip.Hierarchy.LLCPolicy = replacement.DIP
	drrip.Hierarchy.LLCPolicy = replacement.DRRIP

	cases := []struct {
		name   string
		cfg    sim.Config
		apps   []string
		policy string
		seed   uint64
		want   string
	}{
		{"baseline", base, []string{"sje", "lib"}, "baseline", 1,
			"v1:a40d2a2800531413bdeb6d628cbec72b24cd27a7ce09f5a0fec48733297ad071"},
		{"qbs-seed7", qbs, []string{"sje", "lib"}, "qbs", 7,
			"v1:a00b9ef154ba559d540b19f453c579de8ba042f43ff1be36006fc679d608da23"},
		{"llc-dip", dip, []string{"sje", "lib"}, "baseline", 1,
			"v1:ec1cd070675edddfdd6162b1b173eb7d0377695ab87901e8dfc73a695382a64c"},
		{"llc-drrip", drrip, []string{"sje", "lib"}, "baseline", 1,
			"v1:af5057533709293dfb4043cbfcd2545bf460bf4dad59a33f90a4e402b61d6d6a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Key(tc.cfg, tc.apps, tc.policy, tc.seed)
			if got != tc.want {
				t.Errorf("Key drifted:\n got %s\nwant %s\ncanonical: %s",
					got, tc.want, canonical(tc.cfg, tc.apps, tc.policy, tc.seed))
			}
		})
	}
}

// TestKeyCanonicalGolden pins the pre-hash canonical string so a
// drifted hash is debuggable from the test failure alone.
func TestKeyCanonicalGolden(t *testing.T) {
	got := canonical(sim.DefaultConfig(2), []string{"sje", "lib"}, "baseline", 1)
	want := "v1|apps=sje,lib|policy=baseline|seed=1|instr=2000000|warmup=1000000" +
		"|cores=2|line=64|l1i=32768/4|l1d=32768/4|l2=262144/8|llc=2097152/16" +
		"|pol=0,0,1|incl=0|tla=0|tlh=3/1000|qbs=7/0/false|l2incl=false/false" +
		"|pf=false/0/0/0/0|vc=0|bcast=false|banks=0/0|lat=1,10,24,150|cpu=4/128/32"
	if got != want {
		t.Errorf("canonical form drifted:\n got %s\nwant %s", got, want)
	}
}

// keyExempt names the sim.Config leaves that deliberately stay out of
// the key, each with the reason it cannot change a cached result.
var keyExempt = map[string]string{
	"Seed":      "hashed via Key's explicit seed argument, which overrides this field",
	"Telemetry": "pure observer; never changes simulation results",
	"Epoch":     "result-invariant batching knob; every epoch yields byte-identical manifests (TestEpochInvariance)",
}

// TestKeyCoversConfig changes every leaf of sim.Config in turn — the
// fields of nested and embedded structs, and the Telemetry pointer from
// nil to a recorder — and requires each change to change the key
// unless keyExempt names the field. A new config field fails here until
// it is written into canonical (bumping KeyVersion) or exempted with a
// reason; an exempt field that does change the key fails as stale.
func TestKeyCoversConfig(t *testing.T) {
	cfg := sim.DefaultConfig(2)
	apps := []string{"sje", "lib"}
	ref := Key(cfg, apps, "baseline", 1)
	unseen := maps.Clone(keyExempt)
	statecheck.Leaves(&cfg, func(path string, v reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		statecheck.Change(v)
		changed := Key(cfg, apps, "baseline", 1) != ref
		v.Set(old)
		_, exempt := keyExempt[path]
		switch {
		case !changed && !exempt:
			t.Errorf("changing %s leaves the key unchanged: write it in canonical and bump KeyVersion, "+
				"or add it to keyExempt with the reason it cannot change results", path)
		case changed && exempt:
			t.Errorf("%s is in keyExempt but changes the key: drop the stale exemption", path)
		}
		delete(unseen, path)
	})
	for path := range unseen {
		t.Errorf("keyExempt names %s, which is not a leaf of sim.Config", path)
	}
}

// Distinct requests must produce distinct keys: every axis the
// canonical form encodes has to perturb the hash.
func TestKeySensitivity(t *testing.T) {
	base := sim.DefaultConfig(2)
	apps := []string{"sje", "lib"}
	ref := Key(base, apps, "baseline", 1)

	perturb := map[string]string{}
	add := func(name, key string) {
		if key == ref {
			t.Errorf("%s did not change the key", name)
		}
		if prev, ok := perturb[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		perturb[key] = name
	}

	add("seed", Key(base, apps, "baseline", 2))
	add("policy-name", Key(base, apps, "qbs", 1))
	add("apps", Key(base, []string{"lib", "sje"}, "baseline", 1))

	c := base
	c.Instructions++
	add("instructions", Key(c, apps, "baseline", 1))
	c = base
	c.Warmup++
	add("warmup", Key(c, apps, "baseline", 1))
	c = base
	c.Hierarchy.LLCSize *= 2
	add("llc-size", Key(c, apps, "baseline", 1))
	c = base
	c.Hierarchy.TLA = hierarchy.TLAECI
	add("tla", Key(c, apps, "baseline", 1))
	c = base
	c.Hierarchy.EnablePrefetch = !c.Hierarchy.EnablePrefetch
	add("prefetch", Key(c, apps, "baseline", 1))
	c = base
	c.CPU.ROB *= 2
	add("rob", Key(c, apps, "baseline", 1))
	c = base
	c.Hierarchy.Latency.Memory++
	add("latency", Key(c, apps, "baseline", 1))
}

// The observer field must NOT perturb the key — it is excluded from
// the canonical form by design.
func TestKeyIgnoresObservers(t *testing.T) {
	base := sim.DefaultConfig(2)
	apps := []string{"sje", "lib"}
	ref := Key(base, apps, "baseline", 1)

	c := base
	c.Telemetry = telemetry.NewRecorder(500)
	c.Telemetry.Decisions = &telemetry.DecisionLog{}
	if got := Key(c, apps, "baseline", 1); got != ref {
		t.Errorf("the telemetry observer changed the key: %s != %s", got, ref)
	}
}

func TestKeyShape(t *testing.T) {
	k := Key(sim.DefaultConfig(2), []string{"sje", "lib"}, "baseline", 1)
	if !strings.HasPrefix(k, KeyVersion+":") {
		t.Errorf("key %q lacks the %s: version prefix", k, KeyVersion)
	}
	if len(k) != len(KeyVersion)+1+64 {
		t.Errorf("key %q is not a %s-prefixed hex SHA-256", k, KeyVersion)
	}
}

// ValidKey must accept exactly what Key produces and nothing that
// could name a file path — it is the HTTP layer's traversal gate.
func TestValidKey(t *testing.T) {
	if k := Key(sim.DefaultConfig(2), []string{"sje", "lib"}, "baseline", 1); !ValidKey(k) {
		t.Errorf("ValidKey rejects Key output %q", k)
	}
	hex64 := strings.Repeat("0f", 32)
	for _, bad := range []string{
		"",
		"v1:",
		"v1:deadbeef",                         // too short
		"v2:" + hex64,                         // wrong version
		hex64,                                 // no prefix
		"v1:" + strings.Repeat("0F", 32),      // uppercase hex
		"v1:" + strings.Repeat("0g", 32),      // non-hex
		"v1:" + hex64 + "0",                   // too long
		"../../etc/passwd",                    // traversal
		"v1:../" + hex64[:len(hex64)-3],       // traversal, right length
		"/etc/passwd",                         // absolute
		"v1:" + hex64[:len(hex64)-1] + "\x00", // NUL
	} {
		if ValidKey(bad) {
			t.Errorf("ValidKey accepts %q", bad)
		}
	}
}
