"""Priming partitioned models for parameter-efficient fine-tuning."""

__version__ = "0.1.0"
