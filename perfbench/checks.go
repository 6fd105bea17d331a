package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// verdictDoc is the part of a served verdict the checks read.
type verdictDoc struct {
	Epoch      int  `json:"epoch"`
	NonNeutral bool `json:"non_neutral"`
	Slices     []struct {
		Seq        string `json:"seq"`
		NonNeutral bool   `json:"non_neutral"`
	} `json:"slices"`
}

// policersFlagged checks a verdict against the generator's ground
// truth: the network is flagged non-neutral, and every slice flagged
// non-neutral lies on a planted policer (no false positive). It does
// not require every policer to be flagged: at a finite history,
// Algorithm 1's two-means split can leave one policer's slice in the
// low cluster, which is a property of the inference, not a broken run.
func policersFlagged(verdict []byte, policers []string) error {
	var v verdictDoc
	if err := json.Unmarshal(verdict, &v); err != nil {
		return err
	}
	if !v.NonNeutral {
		return fmt.Errorf("verdict is neutral; policers %v were planted", policers)
	}
	for _, s := range v.Slices {
		if !s.NonNeutral {
			continue
		}
		planted := false
		for _, l := range strings.Split(strings.Trim(s.Seq, "<>"), ",") {
			planted = planted || slices.Contains(policers, l)
		}
		if !planted {
			return fmt.Errorf("slice %s is flagged but holds no planted policer %v", s.Seq, policers)
		}
	}
	return nil
}

// tamperVerdict flips one digit of a verdict document, the way a
// broken fold would, for the self-test.
func tamperVerdict(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '0' && out[i] <= '8' {
			out[i]++
			return out
		}
	}
	return append(out, ' ')
}
