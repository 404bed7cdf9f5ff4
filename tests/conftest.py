import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def origin(spec):
    """The point of ``spec`` at zero vectors and identity poses."""
    from jointcov.manifold import ManifoldPoint

    return ManifoldPoint(spec, [np.zeros(d) for d in spec.dims])


def one_row_sets(fs):
    """The rows of a factor set, each as a one-row set of the same kind,
    group and blocks."""
    from jointcov.problem import RELATIVE_SE2, FactorSet

    out = []
    for i in range(len(fs)):
        def row(a):
            return None if a is None else a[i:i + 1]
        out.append(FactorSet(
            fs.kind, tuple(map(row, fs.blocks)) if fs.kind == RELATIVE_SE2 else fs.blocks,
            row(fs.z), fs.group_id, H=row(fs.H),
            preprocess_jacobian=row(fs.preprocess_jacobian)))
    return out
