"""The benchmark's workloads and the correctness gate every invocation passes.

Each workload is one ``wreathchar`` command line, run as ``cli.main(argv)``
in a fresh single-process interpreter (``--workers 1``), so the module caches
start empty as they do on every CLI invocation.  ``{seed}`` in an argv is
replaced by the invocation's seed (``invocation_seed``).

Answers are pinned from the seed commit and compared exactly; no statistical
tolerance is used.  Answers pinned for ``DEFAULT_SEED`` apply to an invocation
with that seed, which is the first invocation of a run with that seed.  For
any other seed the checks are relations that a correct program cannot fail
(the seed is echoed, every sample is evaluated, certificate coverage equals
the certified proportion, type-D coverage depends on n alone, and the
seed-paired certificate census never certifies more cells than the sampled
census finds divisible).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    cells: int  # table cells (exact, table) or samples (sampled) per invocation
    sampled: bool = False
    warmup: tuple[int, int] | None = None  # (n, k) for unrank_multipartition(n, k, 0)
    answer: dict = field(default_factory=dict)  # report fields, any seed
    answer_default_seed: dict = field(default_factory=dict)  # report fields, DEFAULT_SEED
    csv_sha256: str | None = None  # digest of the whole stdout
    # (k, n, p) of a certificate census drawing the same pairs; it must certify
    # no more cells than the sampled census finds divisible
    paired_certificate: tuple[int, int, int] | None = None
    fires: tuple[str, ...] = ()  # traced spans that must record calls

    def command(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


def invocation_seed(seed: int, index: int) -> int:
    """Seed of a run's index-th invocation: the run seed first, then seeds
    derived from it, so that a run's median covers independent draws."""
    return (seed + index * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)


_SAMPLING_SPANS = ("partitions.unrank", "partitions.count", "stats.stream.below", "stats.stream.take")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-census",
            why="Largest exact point of the divisibility trend (1165 columns); one whole column at a time.",
            argv=("census", "--group", "Z2", "--n", "12", "--p", "2", "--workers", "1"),
            cells=1165 * 1165,
            answer={"divisible": 1054953, "evaluated": 1357225, "proportion": "1054953/1357225"},
            fires=("cli.main", "stats.exact_census", "wreath_chars.character_table",
                   "wreath_chars.character_column", "cli.json_dumps", "cli.stdout_write"),
        ),
        Workload(
            name="sampled-census",
            why="Sampled point of the trend at n=24: uniform draws, then the character engine one cell at a time.",
            argv=("sample-census", "--group", "Z2", "--n", "24", "--p", "2", "--samples", "1000",
                  "--seed", "{seed}", "--workers", "1"),
            cells=1000,
            sampled=True,
            warmup=(24, 2),
            answer_default_seed={
                "divisible": 903,
                "evaluated": 1000,
                "proportion": "903/1000",
                "ci_low": 0.8761697593628585,
                "ci_high": 0.9245177617249957,
                "coverage": None,
            },
            paired_certificate=(2, 24, 2),
            fires=("cli.main", "stats.sampled_census", "wreath_chars.mn_character") + _SAMPLING_SPANS,
        ),
        Workload(
            name="cert-census",
            why="Certificate-only census at n=2000: bigint tables, unranking, mashing and hashing; no character is evaluated.",
            argv=("cert-census", "--k", "2", "--n", "2000", "--p", "2", "--samples", "1000",
                  "--seed", "{seed}", "--workers", "1"),
            cells=1000,
            sampled=True,
            warmup=(2000, 2),
            answer_default_seed={
                "divisible": 462,
                "evaluated": 1000,
                "proportion": "231/500",
                "ci_low": None,
                "ci_high": None,
                "coverage": "231/500",
            },
            fires=("cli.main", "stats.certificate_census", "congruence.mash_canonical",
                   "congruence.zero_certificate") + _SAMPLING_SPANS,
        ),
        Workload(
            name="table-csv",
            why="Full S3 wr S7 table as 7.7 MB of CSV: serialization dominates, k=3 with a degree-2 character, no census loop.",
            argv=("table", "--group", "S3", "--n", "7", "--format", "csv", "--workers", "1"),
            cells=429 * 429,
            csv_sha256="814ab3a10ae7de880dca475a33eb8d2d343e3437779c1edac513c5340a8a74e0",
            fires=("cli.main", "wreath_chars.character_table", "wreath_chars.character_column",
                   "cli.write_csv", "cli.stdout_write"),
        ),
        Workload(
            name="dn-sampled",
            why="Type-D sampled census at p=3: the rejection loops of weyl_d around the character engine.",
            argv=("dn-census", "--n", "20", "--p", "3", "--mode", "sampled", "--samples", "2000",
                  "--seed", "{seed}"),
            cells=2000,
            sampled=True,
            warmup=(20, 2),
            answer={"coverage": "9642550/9740641"},
            answer_default_seed={
                "divisible": 1359,
                "evaluated": 2000,
                "proportion": "1359/2000",
                "ci_low": 0.6520655392112836,
                "ci_high": 0.7057474347463599,
            },
            fires=("cli.main", "weyl_d.dn_restricted_census", "wreath_chars.mn_character") + _SAMPLING_SPANS,
        ),
    )
}

# The same workloads at sizes that run in well under a second, for the self-test.
TOY_WORKLOADS = {
    "exact-census": replace(
        WORKLOADS["exact-census"],
        argv=("census", "--group", "Z2", "--n", "5", "--p", "2", "--workers", "1"),
        cells=36 * 36,
        answer={"divisible": 652, "evaluated": 1296, "proportion": "163/324"},
    ),
    "sampled-census": replace(
        WORKLOADS["sampled-census"],
        argv=("sample-census", "--group", "Z2", "--n", "8", "--p", "2", "--samples", "300",
              "--seed", "{seed}", "--workers", "1"),
        cells=300,
        warmup=(8, 2),
        paired_certificate=(2, 8, 2),
        answer_default_seed={
            "divisible": 218,
            "evaluated": 300,
            "proportion": "109/150",
            "ci_low": 0.6560217251027076,
            "ci_high": 0.7875024840056796,
            "coverage": None,
        },
    ),
    "cert-census": replace(
        WORKLOADS["cert-census"],
        argv=("cert-census", "--k", "2", "--n", "60", "--p", "2", "--samples", "300",
              "--seed", "{seed}", "--workers", "1"),
        cells=300,
        warmup=(60, 2),
        answer_default_seed={
            "divisible": 111,
            "evaluated": 300,
            "proportion": "37/100",
            "ci_low": None,
            "ci_high": None,
            "coverage": "37/100",
        },
    ),
    "table-csv": replace(
        WORKLOADS["table-csv"],
        argv=("table", "--group", "S3", "--n", "3", "--format", "csv", "--workers", "1"),
        cells=22 * 22,
        csv_sha256="3646f406552c5f22791bc554c033e65de9840af118569d58b1265d3e89c55b58",
    ),
    "dn-sampled": replace(
        WORKLOADS["dn-sampled"],
        argv=("dn-census", "--n", "8", "--p", "3", "--mode", "sampled", "--samples", "300",
              "--seed", "{seed}"),
        cells=300,
        warmup=(8, 2),
        answer={"coverage": "171/200"},
        answer_default_seed={
            "divisible": 164,
            "evaluated": 300,
            "proportion": "41/75",
            "ci_low": 0.47242207020070887,
            "ci_high": 0.6188917375569003,
        },
    ),
}


def gate(w: Workload, seed: int, result: dict) -> list[str]:
    """Problems with one invocation's output; empty when it is correct."""
    if result.get("error"):
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}"]
    if w.csv_sha256 is not None:
        if result["stdout_sha256"] != w.csv_sha256:
            return [f"stdout sha256 {result['stdout_sha256']} != pinned {w.csv_sha256}"]
        return []
    report = result.get("report")
    if not isinstance(report, dict):
        return ["stdout is not a JSON report"]
    problems = []
    pinned = dict(w.answer)
    if seed == DEFAULT_SEED:
        pinned.update(w.answer_default_seed)
    for key, want in pinned.items():
        if report.get(key) != want:
            problems.append(f"{key} = {report.get(key)!r}, pinned {want!r}")
    if w.sampled:
        if report.get("evaluated") != w.cells:
            problems.append(f"evaluated = {report.get('evaluated')!r}, expected {w.cells}")
        echoed = (report.get("seed"), report.get("config", {}).get("seed"))
        if echoed != (seed, seed):
            problems.append(f"seed echoed as {echoed}, expected {seed}")
        if report.get("mode") == "certificate" and report.get("coverage") != report.get("proportion"):
            problems.append("certificate coverage differs from its proportion")
    if w.paired_certificate:
        paired = result.get("paired_divisible")
        if paired is None or paired > report.get("divisible", -1):
            problems.append(f"seed-paired certificate census certifies {paired} cells, "
                            f"more than the {report.get('divisible')} found divisible")
    return problems
