"""Gates that can fail: a paper claim checked in a regime where a broken
algorithm misses it, and broken variants that the gate must reject.

The variance-reduction gate runs the toy at n = 100, K_max = 2000 and 100
times the case-1 step, where the algorithms separate: the mean over 10 seeds
of the last recorded ||h(S^k)||^2 reads about 1.3 for Online EM, 3.6e-7 for
FIEM and 3.7e-8 for opt-FIEM.  At the planned step itself the paths barely
move and no gate can tell FIEM from Online EM.
"""
import numpy as np
import pytest

import fiem.algorithms
from fiem.algorithms import RunOptions, StepSchedule, run
from fiem.stepsize import PlannerInputs, plan_case1
from fiem.toy import generate_toy

N, K_MAX, STEP_MULTIPLE, SEEDS = 100, 2000, 100.0, range(10)
# FIEM's final ||h||^2 must sit this far below Online EM's
REDUCTION = 1e-3


@pytest.fixture(scope="module")
def setting():
    model = generate_toy(0, N)
    inputs = PlannerInputs.from_constants(model.constants(), n=N, k_max=K_MAX)
    gammas = STEP_MULTIPLE * plan_case1(inputs).schedule.gammas
    return model, StepSchedule(gammas)


def final_h_sq(setting, algorithm):
    """Mean over the seeds of ||h||^2 at the last recorded iteration."""
    model, schedule = setting
    return float(np.mean([
        run(algorithm, model, schedule, seed,
            RunOptions(s0=np.zeros(model.q))).h_sq[-1]
        for seed in SEEDS]))


@pytest.fixture(scope="module")
def online_em(setting):
    return final_h_sq(setting, "online-em")


def test_variance_reduction_gate_holds(setting, online_em):
    e_fiem = final_h_sq(setting, "fiem")
    e_opt = final_h_sq(setting, "opt-fiem")
    assert e_fiem <= REDUCTION * online_em, f"FIEM/Online EM = {e_fiem / online_em:.3e}"
    assert e_opt <= e_fiem, f"opt-FIEM/FIEM = {e_opt / e_fiem:.3e}"


def _dropped(cv_update):
    # the control variate removed: FIEM becomes Online EM with replacement
    return lambda *args: cv_update(*args[:-1], 0.0)


def _sign_flipped(cv_update):
    return lambda *args: cv_update(*args[:-1], -args[-1])


@pytest.mark.parametrize("mutant", [_dropped, _sign_flipped], ids=["cv-dropped", "cv-sign-flipped"])
def test_variance_reduction_gate_rejects(setting, online_em, monkeypatch, mutant):
    monkeypatch.setattr(fiem.algorithms, "_cv_update", mutant(fiem.algorithms._cv_update))
    e_fiem = final_h_sq(setting, "fiem")
    assert not e_fiem <= REDUCTION * online_em, f"FIEM/Online EM = {e_fiem / online_em:.3e}"
