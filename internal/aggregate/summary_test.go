package aggregate

import (
	"encoding/json"
	"errors"
	"testing"

	"extradeep/internal/ingest"
	"extradeep/internal/profile"
)

// TestAggregateSummaryOptionsMismatch: a profile holding only a summary
// built under other options fails the aggregation with a typed error
// naming it, while one that still has its trace is summarized again, and
// one summarized under the aggregation's options is used as it is.
func TestAggregateSummaryOptionsMismatch(t *testing.T) {
	doc, err := json.Marshal(makeProfiles(1, 2, 0.01, 0.002)[0])
	if err != nil {
		t.Fatal(err)
	}
	built := Options{SkipWarmupEpochs: 2}
	p, _, err := ingest.SummarizeBytes(doc, "json", built)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Aggregate([]*profile.Profile{p}, DefaultOptions())
	var mismatch *SummaryOptionsError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Aggregate = %v, want a *SummaryOptionsError", err)
	}
	if mismatch.Have != built || mismatch.Want != DefaultOptions() || mismatch.Rank != p.Rank || mismatch.Rep != p.Rep {
		t.Errorf("error %+v, want have %+v, want %+v for rank %d rep %d", mismatch, built, DefaultOptions(), p.Rank, p.Rep)
	}
	if _, err := Aggregate([]*profile.Profile{p}, built); err != nil {
		t.Errorf("aggregating under the summary's own options: %v", err)
	}

	full, _, err := ingest.DecodeBytes(doc, "json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Aggregate([]*profile.Profile{full}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full.Summary = p.Summary // a stale summary next to the events
	got, err := Aggregate([]*profile.Profile{full}, DefaultOptions())
	if err != nil {
		t.Fatalf("a profile with its trace and a stale summary: %v", err)
	}
	if err := diffReference(asReference(want), asReference(got)); err != nil {
		t.Errorf("a stale summary changed the aggregate: %v", err)
	}
}
