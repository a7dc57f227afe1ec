"""Spectra of kernel affinity matrices and graph Laplacians built from
noisy high-dimensional point clouds."""

__version__ = "0.1.0"

from .datagen import (
    GeneratorConfig,
    PointCloud,
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
    load_cloud_csv,
    load_cloud_npz,
    random_rotation,
    save_cloud_csv,
    save_cloud_npz,
)
from .kernels import (
    KernelParams,
    affinity,
    degree,
    factor_matrices,
    gram,
    laplacian,
    load_matrix_csv,
    off_diagonal,
    pairwise_sq_dists,
    save_matrix_csv,
    sym_normalized,
    transition,
    zeroed_transition,
)
from .mplaw import (
    MpMeasure,
    ScalingRegime,
    classify_regime,
    export_measure_csv,
    mp_cdf,
    mp_density,
    mp_edges,
    nu0,
    nu_check0,
    nu_lambda,
    nu_tilde0,
    spiked_gram_outlier,
    typical_location,
)
from .spectrum import (
    SpectrumResult,
    StieltjesGrid,
    bulk_rigidity,
    eigvec_rmse,
    esd_histogram,
    gap_instability_flags,
    op_norm_diff,
    save_histogram_csv,
    save_spectrum_csv,
    stieltjes,
    stieltjes_compare,
    sym_eigs,
)
from .approximants import (
    MehlerExpansion,
    PhiVector,
    kd_matrix,
    mehler_t0,
    mehler_truncation,
    phi_vector,
    scaled_hermite,
    w_a1,
    w_a2,
    w_b1,
    w_tilde_a1,
)
from .bandwidth import (
    OmegaSelection,
    quantile_bandwidth,
    ratio_window,
    resample_threshold,
    save_selection_json,
    select_omega,
    window_outliers,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    RunManifest,
    parse_config_file,
    run,
)
