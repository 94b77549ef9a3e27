"""Spatio-temporal rain nowcasting kit: factorized 3D conv U-shaped network,
its own reverse-mode autodiff, dice-loss training with AdamW and SWA, binary
segmentation metrics, and a synthetic-data pipeline."""

__version__ = "0.1.0"
