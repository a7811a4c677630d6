"""Host-model validation: the model form must track *measured* MTTKRP.

The paper-machine model is pinned to the paper's reported bands elsewhere;
here the same model *form*, calibrated to this host, must predict this
host's measured single-thread MTTKRP times within a loose factor.  This is
the strongest evidence available on this hardware that the model's shapes
are physical rather than curve-fit artifacts.
"""

import pytest

from repro.bench.timing import median_time
from repro.core.dispatch import mttkrp
from repro.machine.calibrate import calibrate_host_model
from repro.machine.predict import predict_algorithm_time
from repro.parallel.blas import blas_threads
from repro.tensor.generate import random_factors, random_tensor

# Loose band: container timing is noisy and the model is first-order.
MAX_RATIO = 5.0


@pytest.fixture(scope="module")
def host():
    return calibrate_host_model(stream_entries=4_000_000, gemm_size=384)


@pytest.mark.parametrize(
    "shape,n,algo",
    [
        ((96, 96, 96), 1, "twostep"),
        ((96, 96, 96), 0, "onestep"),
        ((40, 40, 40, 40), 2, "twostep"),
        ((96, 96, 96), 1, "gemm-baseline"),
    ],
)
def test_prediction_tracks_measurement(host, shape, n, algo):
    X = random_tensor(shape, rng=0)
    U = random_factors(shape, 25, rng=1)
    # Single-thread means one BLAS thread too, as in the calibration;
    # num_threads=1 alone leaves the 1-step kernel's BLAS at its default.
    with blas_threads(1):
        if algo == "gemm-baseline":
            from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound

            scratch: dict = {}
            measured = median_time(
                lambda: mttkrp_gemm_lower_bound(
                    X, U, n, num_threads=1, _scratch=scratch
                ),
                repeats=3,
            )
        else:
            measured = median_time(
                lambda: mttkrp(X, U, n, method=algo, num_threads=1),
                repeats=3,
            )
    predicted, _ = predict_algorithm_time(host, shape, n, 25, 1, algo)
    ratio = predicted / measured
    assert 1.0 / MAX_RATIO < ratio < MAX_RATIO, (
        f"{algo} mode {n} on {shape}: predicted {predicted:.4f}s vs "
        f"measured {measured:.4f}s (ratio {ratio:.2f})"
    )


def test_relative_ordering_preserved(host):
    """The model must get the *ordering* right on the host: sequential
    2-step <= 1-step for an internal mode (the paper's Figure 5 ordering)."""
    shape = (64, 64, 64, 64)
    X = random_tensor(shape, rng=2)
    U = random_factors(shape, 25, rng=3)
    with blas_threads(1):
        m_two = median_time(
            lambda: mttkrp(X, U, 1, method="twostep", num_threads=1),
            repeats=3,
        )
        m_one = median_time(
            lambda: mttkrp(X, U, 1, method="onestep", num_threads=1),
            repeats=3,
        )
    p_two, _ = predict_algorithm_time(host, shape, 1, 25, 1, "twostep")
    p_one, _ = predict_algorithm_time(host, shape, 1, 25, 1, "onestep")
    assert m_two <= m_one * 1.2  # measured ordering (with noise margin)
    assert p_two <= p_one  # modeled ordering
