"""Budgeted performance-test generation with an online GAN.

Three algorithms spend a fixed budget of expensive system-under-test
executions while trying to collect as many threshold-exceeding tests as
possible: uniform random sampling, surrogate-filtered sampling, and an
online GAN whose generator proposes candidates directly.  A synthetic
big.LITTLE power model with an exhaustively enumerable configuration
space stands in for real hardware, so suite quality is checkable
against a brute-force oracle.
"""

from .gan import (
    GanHyperparams,
    GanModel,
    init_gan,
    predict_fitness,
    sample_candidates,
    train_discriminator,
    train_gan,
    train_generator,
)
from .generators import (
    AlgorithmConfig,
    TestRecord,
    TestSuite,
    run_dn,
    run_ogan,
    run_random,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    emit_outputs,
    histogram,
    load_config,
    run_experiment,
    sma,
)
from .nn import (
    Gradients,
    LayerSpec,
    NetworkState,
    NetworkTopology,
    backward,
    forward,
    init_network,
    loss_mse,
    rmsprop_step,
    train_epochs,
)
from .space import (
    Dimension,
    InputSpace,
    TestInput,
    cardinality,
    default_space,
    enumerate_inputs,
    normalize_batch,
    sample_uniform,
    snap,
)
from .sut import (
    FitnessSpec,
    SutInterface,
    SyntheticSut,
    calibrate_gain,
    fitness,
    oracle_positive_set,
    positive_density,
)

__version__ = "0.1.0"
