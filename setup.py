from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Adversarial inputs to data-driven networks: reproduction of "
        "Meier et al., HotNets'19"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["networkx"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
