import numpy as np
import pytest

from extctrl import Dataset, Group, OutcomeKind


def make_dataset(severe, groups, outcomes=None, times=None, events=None,
                 covariate_names=("severe",), outcome_kind=None):
    rows = [x if isinstance(x, (tuple, list)) else (x,) for x in severe]
    if outcome_kind is None:
        if times is not None:
            outcome_kind = OutcomeKind.TIME_TO_EVENT
        elif outcomes is not None:
            vals = set(float(v) for v in outcomes)
            outcome_kind = (
                OutcomeKind.BINARY if vals <= {0.0, 1.0} else OutcomeKind.CONTINUOUS
            )
    return Dataset(
        tuple(covariate_names),
        ids=[f"p{i}" for i in range(len(rows))],
        trial=[g is Group.TRIAL for g in groups],
        X=np.array(rows, dtype=float).reshape(len(rows), -1),
        outcome=outcomes,
        time=times,
        event=events,
        outcome_kind=outcome_kind,
    )


@pytest.fixture
def toy8():
    """8-subject toy: 1 severe of 4 in the trial, 3 severe of 4 external."""
    severe = [1, 0, 0, 0, 1, 1, 1, 0]
    groups = [Group.TRIAL] * 4 + [Group.EXTERNAL] * 4
    return make_dataset(severe, groups)


def random_confounded_dataset(rng, n=200, p=3):
    """Logistic-confounded two-group dataset with continuous covariates."""
    X = rng.normal(size=(n, p))
    gamma = rng.uniform(-1.0, 1.0, size=p)
    e = 1.0 / (1.0 + np.exp(-(X @ gamma)))
    t = rng.random(n) < e
    if t.sum() == 0:
        t[0] = True
    if t.sum() == n:
        t[0] = False
    groups = [Group.TRIAL if ti else Group.EXTERNAL for ti in t]
    return make_dataset([tuple(row) for row in X], groups,
                        covariate_names=tuple(f"x{j}" for j in range(p)))


def reference_unit_columns(X):
    """``glm._unit_columns`` written out as whole-array operations: every row is
    divided by its largest entry and then by its norm, a zero row by 1. The
    one-pass design and the fits of one must reproduce it to the bit."""
    XT = np.array(np.asarray(X, dtype=float).T, order="C")
    big = np.maximum.reduce(np.abs(XT), axis=1)
    zero = big == 0
    big[zero] = 1.0
    XT /= big[:, None]
    norm = np.sqrt(np.einsum("ij,ij->i", XT, XT))
    norm[zero] = 1.0
    XT /= norm[:, None]
    return XT, big * norm
