"""Priming partitioned models for parameter-efficient fine-tuning."""

from .autodiff import (
    ParameterRegistry,
    Parameter,
    Partition,
    Tensor,
    backward,
    finite_difference_check,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    Corpus,
    MetaTask,
    SplitSpec,
    SyntheticFamily,
    SyntheticLanguageSpec,
    TaggedSequence,
    Vocab,
    build_meta_dataset,
    generate_language,
    load_conll,
)
from .finetune import (
    EvalReport,
    FineTuneHyperparams,
    FineTuneSetting,
    finetune,
    micro_f1,
    run_matrix,
)
from .model import ModelConfig, PartitionedModel, count_trainable_fraction
from .priming import AdamW, PrimingConfig, ft_prime, inner_adapt, outer_step, prime

__version__ = "0.1.0"
