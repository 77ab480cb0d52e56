// Package report renders curation and quality results as a Markdown
// document — the deliverable the paper describes showing to expert users
// ("these results were shown to expert users, helping them to better
// understand their data"). A report composes sections from the detection
// outcome, quality assessments, the collection's facts and the monitor's
// quality time series.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/quality"
)

// Builder accumulates sections and renders Markdown.
type Builder struct {
	title    string
	at       time.Time
	sections []string
}

// New starts a report.
func New(title string, at time.Time) *Builder {
	return &Builder{title: title, at: at}
}

func (b *Builder) add(heading, body string) *Builder {
	b.sections = append(b.sections, "## "+heading+"\n\n"+strings.TrimRight(body, "\n")+"\n")
	return b
}

// AddDetection renders the Fig. 2 block.
func (b *Builder) AddDetection(o *core.DetectionOutcome) *Builder {
	var s strings.Builder
	fmt.Fprintf(&s, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&s, "| run | `%s` (workflow v%d) |\n", o.RunID, o.WorkflowVersion)
	fmt.Fprintf(&s, "| records processed | %d |\n", o.RecordsProcessed)
	fmt.Fprintf(&s, "| distinct species names analyzed | %d |\n", o.DistinctNames)
	fmt.Fprintf(&s, "| outdated species names | %d (%.0f%%) |\n", o.Outdated, 100*o.OutdatedFraction())
	fmt.Fprintf(&s, "| unknown to the authority | %d |\n", o.Unknown)
	fmt.Fprintf(&s, "| authority unavailable for | %d |\n", o.Unavailable)
	fmt.Fprintf(&s, "| per-record updates (pending review) | %d |\n", o.UpdatesCreated)
	fmt.Fprintf(&s, "| elapsed | %s |\n", o.Elapsed.Round(time.Millisecond))
	if len(o.Renames) > 0 {
		fmt.Fprintf(&s, "\n### Updated species names\n\n| outdated | current |\n|---|---|\n")
		names := make([]string, 0, len(o.Renames))
		for n := range o.Renames {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&s, "| *%s* | *%s* |\n", n, o.Renames[n])
		}
	}
	return b.add("Outdated species name detection", s.String())
}

// AddAssessment renders one quality assessment as a table.
func (b *Builder) AddAssessment(heading string, a *quality.Assessment) *Builder {
	var s strings.Builder
	fmt.Fprintf(&s, "Goal **%s**, subject **%s** — utility **%.3f** (%s).\n\n",
		a.Goal, a.Subject, a.Utility, verdict(a.Accepted))
	fmt.Fprintf(&s, "| dimension | score |\n|---|---|\n")
	dims := make([]string, 0, len(a.Dimensions))
	for d := range a.Dimensions {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	for _, d := range dims {
		fmt.Fprintf(&s, "| %s | %.3f |\n", d, a.Dimensions[d])
	}
	if len(a.Missing) > 0 {
		fmt.Fprintf(&s, "\nUnavailable dimensions: %s.\n", strings.Join(a.Missing, ", "))
	}
	fmt.Fprintf(&s, "\n<details><summary>metric detail</summary>\n\n| metric | dimension | score | note |\n|---|---|---|---|\n")
	for _, r := range a.Results {
		if r.Err != "" {
			fmt.Fprintf(&s, "| %s | %s | — | unavailable: %s |\n", r.Metric, r.Dimension, r.Err)
			continue
		}
		fmt.Fprintf(&s, "| %s | %s | %.3f | %s |\n", r.Metric, r.Dimension, r.Score.Value, r.Score.Detail)
	}
	s.WriteString("\n</details>\n")
	return b.add(heading, s.String())
}

func verdict(ok bool) string {
	if ok {
		return "accept"
	}
	return "reject"
}

// AddTrend renders the monitor's quality time series.
func (b *Builder) AddTrend(samples []core.QualitySample) *Builder {
	var s strings.Builder
	if len(samples) == 0 {
		s.WriteString("No reassessments recorded yet.\n")
		return b.add("Quality over time", s.String())
	}
	fmt.Fprintf(&s, "| run | at | accuracy | utility | outdated |\n|---|---|---|---|---|\n")
	for _, q := range samples {
		fmt.Fprintf(&s, "| `%s` | %s | %.4f | %.4f | %d |\n",
			q.RunID, q.At.Format("2006-01-02 15:04"), q.Accuracy, q.Utility, q.Outdated)
	}
	first, last := samples[0], samples[len(samples)-1]
	fmt.Fprintf(&s, "\nNet accuracy change over %d samples: **%+.4f**.\n",
		len(samples), last.Accuracy-first.Accuracy)
	if last.Accuracy < first.Accuracy {
		s.WriteString("Quality is degrading — taxonomic knowledge has evolved; schedule a curation pass.\n")
	}
	return b.add("Quality over time", s.String())
}

// AddFacts renders collection statistics.
func (b *Builder) AddFacts(facts core.CollectionFacts) *Builder {
	var s strings.Builder
	pct := func(n int) string {
		if facts.Records == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(facts.Records))
	}
	fmt.Fprintf(&s, "| fact | count | share |\n|---|---|---|\n")
	fmt.Fprintf(&s, "| records | %d | |\n", facts.Records)
	fmt.Fprintf(&s, "| with full identification | %d | %s |\n", facts.WithIdentification, pct(facts.WithIdentification))
	fmt.Fprintf(&s, "| with gazetteer place | %d | %s |\n", facts.WithWhere, pct(facts.WithWhere))
	fmt.Fprintf(&s, "| georeferenced | %d | %s |\n", facts.WithCoordinates, pct(facts.WithCoordinates))
	fmt.Fprintf(&s, "| with environmental fields | %d | %s |\n", facts.WithEnvironment, pct(facts.WithEnvironment))
	fmt.Fprintf(&s, "| genus/binomial mismatches | %d | %s |\n", facts.GenusMismatch, pct(facts.GenusMismatch))
	fmt.Fprintf(&s, "| classification mismatches | %d | %s |\n", facts.ClassificationMismatch, pct(facts.ClassificationMismatch))
	fmt.Fprintf(&s, "| temporal domain violations | %d | %s |\n", facts.TimeDomainViolation, pct(facts.TimeDomainViolation))
	return b.add("Collection facts", s.String())
}

// Markdown renders the full document.
func (b *Builder) Markdown() string {
	var s strings.Builder
	fmt.Fprintf(&s, "# %s\n\n_Generated %s._\n\n", b.title, b.at.Format("2006-01-02 15:04 MST"))
	for _, sec := range b.sections {
		s.WriteString(sec)
		s.WriteString("\n")
	}
	return s.String()
}
