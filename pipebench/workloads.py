"""The benchmark's workloads: which configs run through which CLI stages.

Every workload is a list of cases.  A case is one shipped config, the
overrides applied to it on the command line, a frame count and the stages
it runs.  The seed given to the benchmark is passed to every ``simulate``
call as ``--seed``; nothing else varies between seeds.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    tag: str
    config: str
    frames: int
    stages: tuple[str, ...]
    overrides: tuple[str, ...] = ()


SIM_EST = ("simulate", "estimate")
SIM_EST_FIT = ("simulate", "estimate", "fit")

WORKLOADS: dict[str, tuple[Case, ...]] = {
    # Two optical depths, 4.66e3 and 2.59e3: a fit change tuned to one
    # fringe density shows on the other.  The fit does >=97% of the work.
    "retrieve_hot": (
        Case("t1", "configs/t1_188C.cfg", 1_000_000, SIM_EST_FIT),
        Case("t2", "configs/t2_174C.cfg", 1_000_000, SIM_EST_FIT),
    ),
    # Ten times the frames at 0.2 photons per frame: the Monte Carlo and the
    # estimators' n_frames-long arrays set the time and the peak memory.
    "events_sparse": (
        Case("t2", "configs/t2_174C.cfg", 10_000_000, SIM_EST),
    ),
    # 8 pairs and about 4 detected photons per frame, still below the
    # saturation warning: cost follows generated pairs and pair products.
    "events_dense": (
        Case("t2", "configs/t2_174C.cfg", 1_000_000, SIM_EST, ("chi = 9.091e-3",)),
    ),
}


def stage_argv(case: Case, stage: str, out: str, seed: int) -> list[str]:
    """Arguments of one CLI call, exactly as a user would type them."""
    overrides = [arg for item in case.overrides for arg in ("--override", item)]
    if stage == "simulate":
        return ["simulate", "--config", case.config, *overrides, "--frames",
                str(case.frames), "--seed", str(seed), "--out", out]
    if stage == "estimate":
        return ["estimate", f"{out}/frames.zhf", "--out", out]
    if stage == "fit":
        return ["fit", f"{out}/covariance.csv", "--config", case.config, *overrides,
                "--out", out]
    raise ValueError(f"unknown stage {stage!r}")


STAGE_OUTPUTS = {
    "simulate": ("frames.zhf",),
    "estimate": ("raw.csv", "accidental.csv", "covariance.csv"),
    "fit": ("fit_report.json", "fit_report.txt"),
}
