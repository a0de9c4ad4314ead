package analysis

import (
	"encoding/json"
	"testing"
)

// TestRuleParitySARIF is the analysis-side half of the rule-parity
// check: every registered analyzer must render a SARIF rule whose
// short description and help text are non-empty, so a future check
// cannot ship without remediation guidance.
func TestRuleParitySARIF(t *testing.T) {
	out, err := SARIF(nil)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						Help struct {
							Text string `json:"text"`
						} `json:"help"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	rules := make(map[string]struct{ short, help string })
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = struct{ short, help string }{r.ShortDescription.Text, r.Help.Text}
	}
	for _, a := range Analyzers() {
		r, ok := rules[a.Name]
		if !ok {
			t.Errorf("%s: registered analyzer has no SARIF rule", a.Name)
			continue
		}
		if r.short == "" {
			t.Errorf("%s: SARIF rule has an empty short description", a.Name)
		}
		if r.help == "" {
			t.Errorf("%s: SARIF rule has an empty help text (set Analyzer.Help)", a.Name)
		}
	}
}
