"""Shared pytest configuration."""

from smith_spectra import eig


def pytest_report_header(config):
    return (f"smith-spectra kernel: {eig.default_backend()} "
            f"(available: {list(eig.available_backends())})")
