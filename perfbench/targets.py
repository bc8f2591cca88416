"""What the traced run wraps in chargelab, and the per-layer metrics read
from the resulting spans.

Counters come from arguments and return values only: quadrature
evaluations from `QuadratureResult.evaluations`, minimizer iterations from
`MinimizationResult.iterations`, eigensolve dimensions from the operator
passed to `ground_energy`, pair counts from the particle number passed to
`random_configuration`, ensemble trials and table rows from arguments.
"""
from tracer import Target

# The ten checks of `chargelab verify`, by the cli function each one runs.
BATTERY = (
    "run_j_check",
    "run_identity_check",
    "run_bogolubov_ladder",
    "run_inequality_fuzz",
    "run_dyson",
    "run_pair_identity",
    "run_trace_scaling",
    "run_berezin",
    "run_matrixloc_ensemble",
    "run_lt_study",
)


def _trials(call):
    return call.arg("trials")


TARGETS = (
    Target("numerics:integrate_1d", count=lambda c: c.result.evaluations),
    # cached after import; wrapped so its callers' self time stays exact
    Target("foldy:foldy_j"),
    Target("foldy:simplified_energy_quadrature"),
    Target("trialstate:trace_gamma"),
    Target("trialstate:random_tight_frame"),
    Target("trialstate:berezin_lieb_check"),
    Target("trialstate:berezin_lieb_ensemble", count=_trials),
    Target("correlation:run_random_ensemble", count=_trials),
    Target("correlation:random_configuration",
           count=lambda c: c.arg("n") * (c.arg("n") - 1) // 2),
    Target("correlation:ParticleConfiguration.__post_init__"),
    Target("correlation:onsager_check"),
    Target("correlation:baxter_check"),
    Target("correlation:yukawa_positivity_check"),
    Target("bogolubov:build_hamiltonian"),
    Target("bogolubov:ground_energy", count=lambda c: c.arg("op").dimension),
    Target("matrixloc:localize"),
    Target("matrixloc:gaussian_ensemble", count=_trials),
    Target("variational:minimize", count=lambda c: c.result.iterations),
    Target("spectral:negative_sum"),
    Target("spectral:ground_state_energy"),
    *(Target(f"cli:{fn}", cpu=True) for fn in BATTERY),
    Target("cli:run_verification_suite"),
    Target("cli:write_record"),
    Target("cli:write_table", count=lambda c: len(c.arg("rows"))),
)


def _stat(span_name, field):
    return lambda stats: getattr(stats[span_name], field)


def _per_trial_us(span_name):
    def value(stats):
        s = stats[span_name]
        return 1e6 * s.total_s / s.count_sum if s.count_sum else 0.0
    return value


def _overlap(span_name):
    def value(stats):
        s = stats[span_name]
        return s.child_s / s.total_s if s.total_s else 0.0
    return value


_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "wait_s": "s"}


def _simple(span, *fields):
    return [(f"{span}.{f}", _UNITS[f], span, _stat(span, f)) for f in fields]


# (metric name, unit, span it reads, value from per-span Stats)
LAYER_METRICS = [
    *_simple("numerics.integrate_1d", "calls"),
    ("numerics.integrate_1d.evals", "count", "numerics.integrate_1d",
     _stat("numerics.integrate_1d", "count_sum")),
    *_simple("numerics.integrate_1d", "self_s"),
    *_simple("foldy.simplified_energy_quadrature", "calls", "total_s"),
    *_simple("trialstate.trace_gamma", "calls", "total_s"),
    *_simple("trialstate.random_tight_frame", "self_s"),
    *_simple("trialstate.berezin_lieb_check", "self_s"),
    ("trialstate.berezin_lieb_ensemble.us_per_trial", "us",
     "trialstate.berezin_lieb_ensemble", _per_trial_us("trialstate.berezin_lieb_ensemble")),
    ("correlation.run_random_ensemble.us_per_trial", "us",
     "correlation.run_random_ensemble", _per_trial_us("correlation.run_random_ensemble")),
    *_simple("correlation.random_configuration", "calls", "self_s"),
    ("correlation.random_configuration.pairs", "count", "correlation.random_configuration",
     _stat("correlation.random_configuration", "count_sum")),
    *_simple("correlation.ParticleConfiguration.__post_init__", "calls", "self_s"),
    *_simple("correlation.onsager_check", "self_s"),
    *_simple("correlation.baxter_check", "self_s"),
    *_simple("correlation.yukawa_positivity_check", "self_s"),
    *_simple("bogolubov.build_hamiltonian", "calls", "self_s"),
    *_simple("bogolubov.ground_energy", "calls", "self_s"),
    ("bogolubov.ground_energy.dim_sum", "count", "bogolubov.ground_energy",
     _stat("bogolubov.ground_energy", "count_sum")),
    ("bogolubov.ground_energy.dim_max", "count", "bogolubov.ground_energy",
     _stat("bogolubov.ground_energy", "count_max")),
    *_simple("matrixloc.localize", "calls", "self_s"),
    ("matrixloc.gaussian_ensemble.us_per_trial", "us",
     "matrixloc.gaussian_ensemble", _per_trial_us("matrixloc.gaussian_ensemble")),
    *_simple("variational.minimize", "calls", "self_s"),
    ("variational.minimize.iterations", "count", "variational.minimize",
     _stat("variational.minimize", "count_sum")),
    *_simple("spectral.negative_sum", "calls", "self_s"),
    *_simple("spectral.ground_state_energy", "self_s"),
    *(m for fn in BATTERY for m in _simple(f"cli.{fn}", "total_s", "wait_s")),
    *_simple("cli.run_verification_suite", "total_s"),
    ("cli.run_verification_suite.overlap", "ratio",
     "cli.run_verification_suite", _overlap("cli.run_verification_suite")),
    *_simple("cli.write_record", "self_s"),
    *_simple("cli.write_table", "self_s"),
    ("cli.write_table.rows", "count", "cli.write_table",
     _stat("cli.write_table", "count_sum")),
]

# Exact repeats for one seed: the counters the self-test compares.
COUNTERS = tuple(
    name for name, unit, _span, _fn in LAYER_METRICS if unit == "count"
)
