package solve

import (
	"context"
	"time"

	"repro/internal/chip"
	"repro/internal/testgen"
)

// ChainConfig tunes AugmentChain.
type ChainConfig struct {
	// Exact enables the tier-0 exact ILP. When false the chain starts at
	// the heuristic tier (the PSO inner loop never pays for the ILP).
	Exact bool
	// ExactBudget caps the exact tier's wall-clock time; 0 picks
	// DefaultExactBudget. The heuristic and repair tiers run under
	// DefaultHeuristicBudget and DefaultRepairBudget.
	ExactBudget time.Duration
	// Options is forwarded to every testgen engine.
	Options testgen.Options
	// Inject lists deterministic faults for the chain's Runner.
	Inject []Injection
	// OnAttempt is forwarded to the Runner's per-tier attempt hook.
	OnAttempt func(Attempt)
}

// Per-tier budgets of AugmentChain.
const (
	DefaultExactBudget     = 30 * time.Second
	DefaultHeuristicBudget = 10 * time.Second
	DefaultRepairBudget    = 5 * time.Second
)

func pick(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// AugmentChain builds the DFT-augmentation degradation chain for a chip:
// exact ILP (optional) → greedy heuristic → best-effort repair. The
// repair tier records any original edges it could not cover in
// Augmentation.Uncovered rather than failing, so the chain only exhausts
// when even a partial configuration is impossible.
func AugmentChain(c *chip.Chip, cfg ChainConfig) *Runner[*testgen.Augmentation] {
	r := &Runner[*testgen.Augmentation]{
		Inject:        cfg.Inject,
		InfeasibleErr: testgen.ErrInfeasible,
		OnAttempt:     cfg.OnAttempt,
	}
	tier := 0
	if cfg.Exact {
		r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
			Tier: tier, Name: "exact", Budget: pick(cfg.ExactBudget, DefaultExactBudget),
			Run: func(ctx context.Context) (*testgen.Augmentation, error) {
				return testgen.AugmentILPCtx(ctx, c, cfg.Options)
			},
		})
		tier++
	}
	r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
		Tier: tier, Name: "heuristic", Budget: DefaultHeuristicBudget,
		Run: func(ctx context.Context) (*testgen.Augmentation, error) {
			return testgen.AugmentHeuristicCtx(ctx, c, cfg.Options)
		},
	})
	tier++
	r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
		Tier: tier, Name: "repair", Budget: DefaultRepairBudget,
		Run: func(ctx context.Context) (*testgen.Augmentation, error) {
			return testgen.AugmentRepair(ctx, c, cfg.Options)
		},
	})
	return r
}
