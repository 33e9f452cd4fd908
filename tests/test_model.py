import math

import numpy as np
import pytest

from driftgame import (
    DomainError,
    InvalidParameters,
    ModelParams,
    belief_to_ratio,
    derive,
    ratio_to_belief,
)


def test_derive_base_case(base_params):
    d = derive(base_params)
    assert d.omega == 4.0          # (1 - (-1)) / 0.5
    assert d.phi0 == 1.0           # prior 0.5


def test_derive_figure_prior():
    d = derive(ModelParams(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.1, prior=0.35))
    assert d.phi0 == pytest.approx(0.35 / 0.65, rel=1e-15)


def test_reference_threshold_conversions():
    # thresholds A=0.329, B=0.868 correspond to a=0.248, b=0.465
    assert ratio_to_belief(0.329) == pytest.approx(0.248, abs=5e-4)
    assert ratio_to_belief(0.868) == pytest.approx(0.465, abs=5e-4)


def test_conversion_round_trip():
    # The double pi carries the odds with absolute error ~u, so the
    # phi-direction round trip has relative error ~u*(1+phi): 1e-14 flat is
    # unattainable above phi ~ 1e2 in IEEE754.  Tested at the
    # condition-scaled tolerance; the pi direction is well conditioned
    # everywhere and gets the flat tolerance.
    for phi in np.geomspace(1e-6, 1e6, 121):
        back = belief_to_ratio(ratio_to_belief(phi))
        assert back == pytest.approx(phi, rel=1e-14 * max(1.0, phi))
    for pi in np.linspace(0.001, 0.999, 101):
        assert ratio_to_belief(belief_to_ratio(pi)) == pytest.approx(pi, rel=1e-14)


def test_conversion_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3, float("nan")):
        with pytest.raises(DomainError):
            belief_to_ratio(bad)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ratio_to_belief(bad)


def test_omega_positive_for_valid_params(random_param_sets):
    for p in random_param_sets:
        assert derive(p).omega > 0.0


@pytest.mark.parametrize("field, value", [
    ("mu0", 0.0), ("mu0", 1.0), ("mu1", 0.0), ("mu1", -1.0),
    ("sigma", 0.0), ("sigma", -0.5), ("eps", 0.0), ("eps", -0.1),
    ("x0", 0.0), ("prior", 0.0), ("prior", 1.0), ("prior", -0.1),
    ("mu0", float("nan")), ("sigma", float("nan")),
    ("mu0", -math.inf), ("mu1", math.inf), ("sigma", math.inf), ("eps", math.inf),
    ("x0", math.inf),
])
def test_invalid_parameters_rejected(field, value):
    kwargs = dict(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.1, x0=1.0, prior=0.5)
    kwargs[field] = value
    with pytest.raises(InvalidParameters) as exc:
        ModelParams(**kwargs)
    # each violated field is named in the message
    assert field.replace("x0", "x0") in str(exc.value)


def test_invalid_parameters_lists_all_violations():
    with pytest.raises(InvalidParameters) as exc:
        ModelParams(mu0=1.0, mu1=-1.0, sigma=0.5, eps=0.1)
    msg = str(exc.value)
    assert "mu0" in msg and "mu1" in msg


def test_params_immutable(base_params):
    with pytest.raises(Exception):
        base_params.mu0 = -2.0
