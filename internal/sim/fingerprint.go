package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"raccd/internal/coherence"
	"raccd/internal/cpu"
	"raccd/internal/noc"
	"raccd/internal/rts"
)

// fingerprintVersion is bumped whenever the canonical form below changes
// meaning, so stale cached results can never be mistaken for current ones.
//
// v2: the machine geometry became parametric — meshw/meshh joined the
// canonical form (and cores/cache/directory fields became genuinely
// variable through raccd.Machine). Every v1 key is a clean miss under v2.
//
// v3: core timing became parametric — core/pfdeg/pfdist joined the
// canonical form. A core model or prefetcher changes cycles and (through
// injected prefetch traffic) every traffic metric, so the knobs must key
// the cache; and because the version is part of the prefix, every v2 key
// is a clean miss under v3.
const fingerprintVersion = 3

// fingerprintFields is the canonical coverage table: every
// result-affecting field of Config — with Params flattened into it — and
// the key that carries it in the canonical form. The raccdvet
// fingerprint analyzer cross-checks this table in both directions
// (struct ↔ table ↔ the `"key="` literals Fingerprint renders), so a new
// Config or coherence.Params field fails `raccdvet ./...` with a
// file:line diagnostic until it is either keyed here and rendered below,
// or listed in fingerprintExcluded with the reason it cannot affect
// results.
var fingerprintFields = map[string]string{
	"System":           "system",
	"DirRatio":         "dirratio",
	"ADR":              "adr",
	"Scheduler":        "sched",
	"SMTWays":          "smt",
	"ComputePerAccess": "compute",
	"Core":             "core",
	"PrefetchDegree":   "pfdeg",
	"PrefetchDistance": "pfdist",
	// coherence.Params, flattened:
	"Cores":             "cores",
	"MeshW":             "meshw",
	"MeshH":             "meshh",
	"L1Sets":            "l1sets",
	"L1Ways":            "l1ways",
	"LLCSetsPerBank":    "llcsets",
	"LLCWays":           "llcways",
	"DirSetsPerBank":    "dirsets",
	"DirWays":           "dirways",
	"DirMinSetsPerBank": "dirminsets",
	"NCRTEntries":       "ncrt",
	"NCRTLookupCycles":  "ncrtlat",
	"TLBEntries":        "tlb",
	"L1HitCycles":       "l1hit",
	"LLCCycles":         "llccyc",
	"MemCycles":         "memcyc",
	"WriteThrough":      "wt",
	"Contiguity":        "contig",
	"Seed":              "seed",
	"NoCTopology":       "noc",
}

// fingerprintExcluded lists the Config fields deliberately NOT part of
// the fingerprint, each with the contract that makes the exclusion
// sound. Removing a row without removing the field (or vice versa) fails
// raccdvet.
var fingerprintExcluded = map[string]string{
	"Validate": "toggles golden checking, not metrics: a validated and an unvalidated run return the same Result",
}

// Fingerprint returns the canonical identity of the simulated machine this
// configuration describes: two Configs produce the same fingerprint exactly
// when they drive identical simulations. It is the configuration half of
// the resultstore cache key (the other half is the workload identity, see
// internal/workloads.Identity).
//
// Properties:
//
//   - Canonical: zero-value fields are normalized to what Run actually
//     uses before rendering (Params zero → DefaultParams, DirRatio 0 → 1,
//     Scheduler "" → fifo, SMTWays 0 → 1, ComputePerAccess 0 → the
//     runtime default, NoCTopology "" → mesh, mesh dims 0×0 → the
//     canonical noc.DefaultMeshDims factorization, Core "" → simple,
//     PrefetchDistance normalized against PrefetchDegree the way cpu.New
//     resolves it), so a default-by-omission Config and an
//     explicit-default Config fingerprint identically.
//   - Field-order-independent: fields are emitted as sorted key=value
//     pairs, so the rendering never depends on struct layout.
//   - Complete over result-affecting fields: every Config field and every
//     Params field except Validate is covered. Validate toggles golden
//     checking, not metrics — a validated and an unvalidated run of the
//     same machine return the same Result, so they intentionally share a
//     fingerprint. TestFingerprintCoversAllFields pins the field counts so
//     a new field cannot be forgotten silently.
func (c Config) Fingerprint() string {
	if c.Params.Cores == 0 {
		c.Params = coherence.DefaultParams()
	}
	if c.DirRatio == 0 {
		c.DirRatio = 1
	}
	if c.Scheduler == "" {
		c.Scheduler = "fifo"
	}
	if c.SMTWays == 0 {
		c.SMTWays = 1
	}
	if c.ComputePerAccess == 0 {
		c.ComputePerAccess = rts.DefaultComputePerAccess
	}
	if c.Core == "" {
		c.Core = "simple"
	}
	if c.PrefetchDegree == 0 {
		// No prefetcher: the distance is inert, normalize it away.
		c.PrefetchDistance = 0
	} else if c.PrefetchDistance == 0 {
		c.PrefetchDistance = cpu.DefaultPrefetchDistance
	}
	p := c.Params
	if p.NoCTopology == "" {
		p.NoCTopology = "mesh"
	}
	if p.Cores > 0 && p.Cores&(p.Cores-1) == 0 {
		if p.MeshW == 0 && p.MeshH == 0 || p.NoCTopology == "ring" {
			// Unset dims take the canonical factorization; a ring ignores
			// mesh dims entirely, so they are normalized away — otherwise
			// identical ring simulations would get distinct cache keys.
			p.MeshW, p.MeshH = noc.DefaultMeshDims(p.Cores)
		}
	}
	pairs := []string{
		"system=" + c.System.String(),
		"dirratio=" + strconv.Itoa(c.DirRatio),
		"adr=" + strconv.FormatBool(c.ADR),
		"sched=" + c.Scheduler,
		"smt=" + strconv.Itoa(c.SMTWays),
		"compute=" + strconv.FormatUint(c.ComputePerAccess, 10),
		"core=" + c.Core,
		"pfdeg=" + strconv.Itoa(c.PrefetchDegree),
		"pfdist=" + strconv.Itoa(c.PrefetchDistance),
		"cores=" + strconv.Itoa(p.Cores),
		"meshw=" + strconv.Itoa(p.MeshW),
		"meshh=" + strconv.Itoa(p.MeshH),
		"l1sets=" + strconv.Itoa(p.L1Sets),
		"l1ways=" + strconv.Itoa(p.L1Ways),
		"llcsets=" + strconv.Itoa(p.LLCSetsPerBank),
		"llcways=" + strconv.Itoa(p.LLCWays),
		"dirsets=" + strconv.Itoa(p.DirSetsPerBank),
		"dirways=" + strconv.Itoa(p.DirWays),
		"dirminsets=" + strconv.Itoa(p.DirMinSetsPerBank),
		"ncrt=" + strconv.Itoa(p.NCRTEntries),
		"ncrtlat=" + strconv.FormatUint(p.NCRTLookupCycles, 10),
		"tlb=" + strconv.Itoa(p.TLBEntries),
		"l1hit=" + strconv.FormatUint(p.L1HitCycles, 10),
		"llccyc=" + strconv.FormatUint(p.LLCCycles, 10),
		"memcyc=" + strconv.FormatUint(p.MemCycles, 10),
		"wt=" + strconv.FormatBool(p.WriteThrough),
		"contig=" + strconv.FormatFloat(p.Contiguity, 'g', -1, 64),
		"seed=" + strconv.FormatInt(p.Seed, 10),
		"noc=" + p.NoCTopology,
	}
	sort.Strings(pairs)
	return fmt.Sprintf("cfg/v%d %s", fingerprintVersion, strings.Join(pairs, " "))
}
