"""Floating marine plastic detection from multiband surface reflectance.

Module map:
    spectra      band registry, FDI/PI/NDVI/kNDVI, feature-set definitions
    raster       grids, the bsqf/1 container, stretching, index rasters, feature kernel
    dataset      labelled sample tables, test cases, splits, profiles
    classifiers  from-scratch random forest and SMO-trained RBF SVM, tuning
    metrics      confusion-matrix suite with explicit NA semantics
    experiment   the feature-set x test-case x algorithm matrix, scene labelling
    synth        linear spectral mixing generators for data and scenes
    cli          the ``plastiscan`` command-line interface
"""

from .spectra import (
    BAND_REGISTRY,
    MODEL_SPECS,
    PLASTIC,
    WATER,
    FeatureSetSpec,
    FeatureVector,
    PixelSpectrum,
    SpectralIndexSet,
    fdi,
    feature_vector,
    index_set,
    kndvi,
    kndvi_sigma,
    ndvi,
    pi,
)
from .dataset import (
    Sample,
    SampleTable,
    SplitResult,
    TestCaseSpec,
    build_test_case,
    load_samples,
    save_samples,
    spectral_profile,
    split,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    NotAValue,
    average_reports,
    class_report,
    confusion,
    evaluate,
    mcnemar_p,
    render_aggregate_text,
    render_metrics_text,
)
from .classifiers import (
    GridSpec,
    RFHyperParams,
    SVMHyperParams,
    grid_search,
    load_model,
    predict_rf,
    predict_rf_batch,
    predict_svm,
    predict_svm_batch,
    rbf_kernel,
    rf_permutation_importance,
    save_model,
    train_rf,
    train_svm,
)
from .experiment import (
    ExperimentMatrix,
    MatrixCell,
    classify_scene,
    export_matrix,
    render_matrix_text,
    run_cell,
    run_matrix,
)
from .raster import (
    BandStack,
    Grid,
    LabelGrid,
    MaskGrid,
    apply_mask,
    read_stack,
    write_stack,
)
from .synth import Endmember, PatchSpec, SynthConfig, gen_dataset, gen_scene, mix_pixel

__version__ = "0.1.0"
