package analysis

import (
	"encoding/json"
	"path/filepath"
)

// SARIF 2.1.0 rendering of findings, the interchange format code
// scanning services ingest. The emitted log is minimal but valid: one
// run, one rule per registered analyzer (so rule metadata is stable
// even when a check is clean), and one result per diagnostic with the
// suggestion folded into the message text.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription sarifMessage  `json:"shortDescription"`
	FullDescription  *sarifMessage `json:"fullDescription,omitempty"`
	Help             *sarifMessage `json:"help,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders diags as an indented SARIF 2.1.0 log. Every registered
// analyzer appears as a rule; diagnostics from unregistered analyzer
// names (none today) grow the rule table on the fly.
func SARIF(diags []Diagnostic) ([]byte, error) {
	ruleIndex := make(map[string]int)
	var rules []sarifRule
	addRule := func(id, doc, help string) {
		if _, ok := ruleIndex[id]; ok {
			return
		}
		ruleIndex[id] = len(rules)
		rule := sarifRule{ID: id, ShortDescription: sarifMessage{Text: doc}}
		if help != "" {
			rule.FullDescription = &sarifMessage{Text: help}
			rule.Help = &sarifMessage{Text: help}
		}
		rules = append(rules, rule)
	}
	for _, a := range Analyzers() {
		addRule(a.Name, a.Doc, a.Help)
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		addRule(d.Analyzer, d.Analyzer, "")
		text := d.Message
		if d.Suggestion != "" {
			text += " (" + d.Suggestion + ")"
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: text},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(d.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "tlavet", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}
