"""The benchmark's fixed command matrices.

Each workload is a list of ``threshnet`` CLI calls.  A call is written as a
template whose ``{size}`` fields take the full size for measured runs and the
smoke size for the self-test.  The workload seed gives every seeded call its
own ``--seed``; ``limits`` tables use no randomness and get none.  Why each
workload and call is here is recorded in ``RATIONALE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose reports are stored under reference/.
RECORDED_SEED = 0

C4 = "k=4;edges=1-2,2-3,3-4,4-1"
C5 = "k=5;edges=1-2,2-3,3-4,4-5,5-1"
SPATIAL = "--d 2 --beta 2 --lambda 1 --theta 1"

# name -> [(call name, template, {field: (full, smoke)})]
MATRICES = {
    "montecarlo": [
        ("triangles-exp", "triangles --dist exp:1 --theta 1 --n {n}",
         {"n": (600_000, 20_000)}),
        ("local-uniform", "local --dist uniform:0,1 --theta 1 --n {n} --R {R}",
         {"n": (20_000, 500), "R": (80, 10)}),
        ("pair-uniform", "pair --dist uniform:0,1 --theta 1 --n {n} --R {R}",
         {"n": (1000, 100), "R": (1000, 50)}),
        ("spatial-direct", f"spatial --mode direct {SPATIAL} --dist uniform:0,1 --r {{r}} --R {{R}}",
         {"r": (300, 30), "R": (40, 10)}),
        ("spatial-mixture-x0", f"spatial --mode mixture {SPATIAL} --dist uniform:0,1 --r 3 --x0 0.5 --R {{R}}",
         {"R": (3000, 200)}),
    ],
    "oracle": [
        ("degree-uniform", "degree --dist uniform:0,1 --theta 1 --n {n} --R {R}",
         {"n": (2000, 100), "R": (8, 3)}),
        ("limit-cdf-exp", "limits --table limit-cdf --dist exp:1 --theta 1 --grid {grid}",
         {"grid": (12, 4)}),
        ("summary-uniform", "limits --table summary --dist uniform:0,1 --theta 1", {}),
        ("summary-twopoint", "limits --table summary --dist twopoint:0.2,0.5,0.9 --theta 1", {}),
        ("spatial-mixture-exp", f"spatial --mode mixture {SPATIAL} --dist exp:1 --r 3 --R {{R}}",
         {"R": (200, 20)}),
        ("clt-pareto", "clt-check --dist pareto:1,1 --theta 1 --d 2 --beta 1 --lambda 1 "
         "--r 10000 --Cr 10000 --R {R}", {"R": (100, 20)}),
    ],
    "census": [
        ("c4-uniform", "motif --dist uniform:0,1 --theta 1 --n {n} --motif " + C4
         + " --density-samples {m}", {"n": (120, 12), "m": (20_000, 100)}),
        ("c4-exp", "motif --dist exp:1 --theta 1 --n {n} --motif " + C4
         + " --density-samples {m}", {"n": (130, 12), "m": (20_000, 100)}),
        ("c4-twopoint", "motif --dist twopoint:0.2,0.5,0.9 --theta 1 --n {n} --motif " + C4
         + " --density-samples {m}", {"n": (130, 12), "m": (20_000, 100)}),
        ("c5-uniform", "motif --dist uniform:0,1 --theta 1 --n {n} --motif " + C5
         + " --density-samples {m}", {"n": (50, 9), "m": (20_000, 100)}),
    ],
}


@dataclass(frozen=True)
class Call:
    """One CLI call of a matrix, with its seed already applied."""

    name: str
    argv: tuple
    seed: int | None
    replicates: int  # Monte Carlo replicates the call runs (0 for pure oracles)

    @property
    def report_name(self) -> str:
        table = self.argv[0] == "limits" and "summary" not in self.argv
        return self.name + (".csv" if table else ".json")


def _replicates(argv: list) -> int:
    for flag in ("--R", "--density-samples"):
        if flag in argv:
            return int(argv[argv.index(flag) + 1])
    return 0


def matrix(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The workload's calls; call i is seeded with ``seed * 100 + i``."""
    calls = []
    for i, (name, template, sizes) in enumerate(MATRICES[workload]):
        argv = template.format(**{k: v[1 if smoke else 0] for k, v in sizes.items()}).split()
        call_seed = None if argv[0] == "limits" else seed * 100 + i
        if call_seed is not None:
            argv += ["--seed", str(call_seed)]
        calls.append(Call(name, tuple(argv), call_seed, _replicates(argv)))
    return calls
