package campaign

import "sdmmon/internal/threat"

// goldenDrills names the graded-response drills in golden-table order.
var goldenDrills = DrillFamilies()

// drillOutput is the part of a drill run the golden digests cover.
type drillOutput struct {
	IncidentBytes  []byte
	Trajectory     []threat.LevelTransition
	Stats          any
	PacketsToLevel [threat.NumLevels]int64
}

func runGoldenDrill(family string, seed int64) (drillOutput, error) {
	r, err := RunCampaign(Config{Family: family, Seed: seed})
	if err != nil {
		return drillOutput{}, err
	}
	return drillOutput{r.IncidentBytes, r.Trajectory, r.Stats, r.PacketsToLevel}, nil
}
