"""Spatio-temporal rain nowcasting kit: factorized 3D conv U-shaped network,
its own reverse-mode autodiff, dice-loss training with AdamW and SWA, binary
segmentation metrics, and a synthetic-data pipeline."""

from .precision import get_precision, set_precision, use_precision
from .tensor import (GradCheckReport, Graph, NonFiniteError, Tensor,
                     TensorError, AutodiffError, backward, grad_check,
                     no_grad, tensor_new)
from .layers import Conv3DLayer, ConvSpec, GroupNormLayer, conv3d, conv3d_transposed, group_norm, maxpool3d
from .model import (RainUNet, RainUNetConfig, TSBlock, encoder_receptive_field,
                    load_checkpoint, receptive_field, save_checkpoint)
from .training import AdamW, SWAAverager, TrainConfig, batch_dice_loss, dice_loss, fit
from .metrics import (ConfusionCounts, LeadTimeCurve, MetricsReport, binarize,
                      confusion, evaluate_masks, lead_time_iou, metrics_from_confusion)
from .data import (CHANNEL_SETS, ChannelSet, SequenceRecord, SynthConfig,
                   center_crop_resize, cleansing_filter, select_modalities,
                   synth_generate, tensor_file_read, tensor_file_write)

__version__ = "0.1.0"
