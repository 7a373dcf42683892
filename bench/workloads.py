"""The benchmark's workloads: what each sweep runs and what its output must be.

Each workload is one closed-loop sweep with a single client.  The three CLI
sweeps keep the command's fixed shape order, because byte-identical
reports are the command's contract; their reports are checked against
SHA-256 digests recorded at the commit that introduced this benchmark.
Only ``crosscheck`` takes its shape order from the seed.

``per_shape`` names the function a CLI sweep calls once per shape, given as
(module, attribute); the worker wraps it to sample host speed between
shapes, in pool workers too.  ``crosscheck`` samples from its own loop.
"""

# Report digests of `modmaj verify --suite classification --n-max 23 --format json`
# (any --jobs) and `modmaj bounds --n-max 23 --format json`.
CLASSIFY_DIGEST = "f9ae369b92b7bd0ae04fbf4ce4a78368be8397dd5b4e0e38161045dff2261d5a"
BOUNDS_DIGEST = "d044126f8a064866e13ca4ad903c411330b64d48b4b827542adda8808be9da0c"

N_MAX = 23
SHAPES_UP_TO_23 = 5762  # partitions of n for 1 <= n <= 23

# crosscheck: three routes plus sum(a_r) = f for every shape with n <= ROUTES_N_MAX,
# then the whole-group induced multiplicity at every shape with n <= INDUCED_N_MAX.
ROUTES_N_MAX = 13
INDUCED_N_MAX = 16
CROSSCHECK_SHAPES = 372 + 914  # partitions up to 13, plus partitions up to 16

WORKLOADS = {
    "classify": {
        "argv": ["verify", "--suite", "classification", "--n-max", str(N_MAX),
                 "--format", "json", "--jobs", "1"],
        "shapes": SHAPES_UP_TO_23,
        "digest": CLASSIFY_DIGEST,
        "per_shape": ("modmaj.modular", "_classification_row"),
    },
    "classify-j2": {
        "argv": ["verify", "--suite", "classification", "--n-max", str(N_MAX),
                 "--format", "json", "--jobs", "2"],
        "shapes": SHAPES_UP_TO_23,
        "digest": CLASSIFY_DIGEST,
        "per_shape": ("modmaj.modular", "_classification_row"),
    },
    "bounds": {
        "argv": ["bounds", "--n-max", str(N_MAX), "--format", "json", "--jobs", "1"],
        "shapes": SHAPES_UP_TO_23,
        "digest": BOUNDS_DIGEST,
        "per_shape": ("modmaj.cli", "_bounds_row"),
    },
    "crosscheck": {
        "argv": None,
        "shapes": CROSSCHECK_SHAPES,
        "digest": None,
        "per_shape": None,
    },
}
