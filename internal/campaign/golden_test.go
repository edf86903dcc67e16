package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// Golden bytes across code versions. The replay tests compare two runs of
// one build; these digests were computed once and pin the exact bytes a
// seeded run produces, so a refactor of the campaign chassis that changes
// any drill's incident records, trajectory, accounting or any adversarial
// family's replay bytes fails here even when it stays self-consistent.

// drillGolden[i][seed-1] digests drill goldenDrills[i] (burst, ramp, the
// below-baseline drip) at seeds 1-4: its IncidentBytes followed by the
// %+v rendering of its Trajectory, Stats and PacketsToLevel.
var drillGolden = [3][4]string{
	{
		"294c27576c89b86b4f492c996236ca6c2e86a9d6261b1a6ffa97973d24bd0709",
		"18d7ef68c94cf62e31a6d108cd9274e536e71fb6c1e68894cf949c9748749566",
		"294c27576c89b86b4f492c996236ca6c2e86a9d6261b1a6ffa97973d24bd0709",
		"294c27576c89b86b4f492c996236ca6c2e86a9d6261b1a6ffa97973d24bd0709",
	},
	{
		"666fc1efe0d7bd568cd731b8d8a0063a981ef739f593ebb99ea5cddb4e0d8c84",
		"8e3b0ef0c5833cf14b5b21bbb37a2b0b7edcfbface9f4fa0610b0a08cfe4dc1b",
		"55fde1f30f9bbb2522788d43b8a80b6526617f836342f2a0fb93d71e930a63f5",
		"55fde1f30f9bbb2522788d43b8a80b6526617f836342f2a0fb93d71e930a63f5",
	},
	{
		"772aea265b5dd20c1b51157fe60baae503df183b94a54b529ccd9168f4b2a6e3",
		"9ef19e9336ec6890539369c5f1ce2b97e423475aa0e7f0cd32bf4e8893e11871",
		"c539acfdf6121248e1a722387a62de97752da5c464b370118d74f2715de36f64",
		"c539acfdf6121248e1a722387a62de97752da5c464b370118d74f2715de36f64",
	},
}

// replayGolden digests each adversarial family's ReplayBytes at seed 2.
var replayGolden = map[string]string{
	FamilyGadget:    "5705f90913c6bc1c3a9348e103c1ac40115b9bc400e81f62053fe3c2d1a9a5b8",
	FamilyCollision: "7b9fde50897f5cfe123e4d69e5174067738e5220d5c3cd9170b51b00452567a7",
	FamilySlowDrip:  "90fec0f4063698cf69cd04090f92412a6a2b43314289c2ecd90cc2c80c87c40f",
	FamilyNoC:       "b17fb7fca9bcfedf0e321945220f649eb5492578a653a0a1a280db68edddea0e",
	FamilyPoison:    "9d3442df9a18170097fcdf51eaf61a50a15fa75a0b2200db9fe8c3b635c470c0",
}

func TestGoldenDrillBytes(t *testing.T) {
	if len(goldenDrills) != len(drillGolden) {
		t.Fatalf("%d drills, %d golden rows", len(goldenDrills), len(drillGolden))
	}
	for i, family := range goldenDrills {
		for seed := int64(1); seed <= 4; seed++ {
			out, err := runGoldenDrill(family, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", family, seed, err)
			}
			h := sha256.New()
			h.Write(out.IncidentBytes)
			fmt.Fprintf(h, "\n%+v\n%+v\n%v\n", out.Trajectory, out.Stats, out.PacketsToLevel)
			if got, want := hex.EncodeToString(h.Sum(nil)), drillGolden[i][seed-1]; got != want {
				t.Errorf("%s seed %d: digest %s, want %s", family, seed, got, want)
			}
		}
	}
}

func TestGoldenReplayBytes(t *testing.T) {
	for _, family := range Families() {
		r, err := RunCampaign(Config{Family: family, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		b, err := r.ReplayBytes()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), replayGolden[family]; got != want {
			t.Errorf("%s: replay digest %s, want %s", family, got, want)
		}
	}
}
