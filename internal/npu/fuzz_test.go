package npu

import (
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// fuzzNP builds an NP with ipv4cm and monitors installed, without a
// *testing.T (fuzz targets construct state under *testing.F).
func fuzzNP(cores int) (*NP, error) {
	return fuzzNPWith(Config{Cores: cores, MonitorsEnabled: true})
}

func fuzzNPWith(cfg Config) (*NP, error) {
	np, err := New(cfg)
	if err != nil {
		return nil, err
	}
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		return nil, err
	}
	const param = 0x600D
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		return nil, err
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), param); err != nil {
		return nil, err
	}
	return np, nil
}

// fuzzSeeds is FuzzProcessPacket's seed corpus: benign packets, the E8
// stack smash, and degenerate inputs.
func fuzzSeeds() [][]byte {
	gen := packet.NewGenerator(77)
	gen.OptionWords = 1
	seeds := [][]byte{gen.Next(), gen.Next()}
	smash := attack.DefaultSmash()
	if code, err := smash.HijackPayload(); err == nil {
		if pkt, err := smash.CraftPacket(code); err == nil {
			seeds = append(seeds, pkt)
		}
	}
	return append(seeds, nil, []byte{0x45}, make([]byte, 20))
}

// FuzzProcessPacket throws arbitrary bytes at an installed ipv4cm core with
// monitors enabled. Whatever the bytes — truncated headers, garbage options,
// crafted attack payloads — the data plane must not panic, the statistics
// must not drift (every accepted packet counted exactly once, conservation
// preserved), and a monitor alarm must always translate into a drop verdict
// (the paper's recovery sequence).
func FuzzProcessPacket(f *testing.F) {
	for _, pkt := range fuzzSeeds() {
		f.Add(pkt)
	}
	np, err := fuzzNP(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		before := np.Stats()
		res, err := np.ProcessOn(0, pkt, 0)
		after := np.Stats()
		if err != nil {
			// Only an oversized packet may be rejected, and a rejected
			// packet must leave the statistics untouched.
			if len(pkt) <= apps.MemSize-apps.PktBase {
				t.Fatalf("in-range packet (%d bytes) rejected: %v", len(pkt), err)
			}
			if after != before {
				t.Fatalf("rejected packet changed stats: %+v -> %+v", before, after)
			}
			return
		}
		if after.Processed != before.Processed+1 {
			t.Fatalf("Processed %d -> %d for one packet", before.Processed, after.Processed)
		}
		if after.Processed != after.Forwarded+after.Dropped {
			t.Fatalf("stats conservation violated: %+v", after)
		}
		if res.Detected && res.Verdict != apps.VerdictDrop {
			t.Fatalf("alarm without drop verdict: %+v", res)
		}
		if res.Detected && res.Faulted {
			t.Fatalf("result both detected and faulted: %+v", res)
		}
	})
}
