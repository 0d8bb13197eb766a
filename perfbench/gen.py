"""Seeded Adult-schema inputs for the benchmark workloads.

The benchmark generates its own data instead of calling the library's
synthetic loader, so the inputs stay fixed while the library changes and
the seed alone decides them. Category names are the leaves of the curated
Adult hierarchies (``repro.data.adult_hierarchy_specs()``); marginals
roughly follow the published Adult extract.
"""

from __future__ import annotations

import numpy as np

WORKCLASS = (["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
              "Local-gov", "State-gov", "Without-pay"],
             [0.75, 0.08, 0.035, 0.03, 0.065, 0.038, 0.002])
EDUCATION = (["Preschool", "Primary", "Some-HS", "HS-grad", "Some-college",
              "Assoc", "Bachelors", "Masters", "Prof-school", "Doctorate"],
             [0.005, 0.04, 0.075, 0.32, 0.225, 0.075, 0.17, 0.055, 0.02, 0.015])
EDUCATION_YEARS = [1, 5, 9, 10, 12, 13, 14, 15, 16, 16]
MARITAL = ["Never-married", "Married", "Divorced", "Separated", "Widowed"]
OCCUPATION = ["Tech-support", "Craft-repair", "Other-service", "Sales",
              "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
              "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
              "Transport-moving", "Protective-serv"]
RACE = (["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"],
        [0.854, 0.096, 0.031, 0.01, 0.009])
SEX = (["Female", "Male"], [0.332, 0.668])
COUNTRY = (["United-States", "Mexico", "Philippines", "Germany", "Canada",
            "India", "England", "China", "Cuba", "Other"],
           [0.895, 0.02, 0.006, 0.005, 0.004, 0.004, 0.003, 0.003, 0.003, 0.057])
SALARY = ["<=50K", ">50K"]

CATEGORICAL = ["workclass", "education", "marital_status", "occupation",
               "race", "sex", "native_country", "salary"]
NUMERIC = ["age", "education_num", "hours_per_week", "capital_gain"]
HEADER = CATEGORICAL + NUMERIC


def _pick(rng, domain, n):
    values, weights = domain
    p = np.asarray(weights, dtype=float)
    return rng.choice(len(values), size=n, p=p / p.sum())


def adult_columns(n_rows: int, seed: int) -> dict:
    """``{column: (codes, categories)}`` for categoricals and
    ``{column: int array}`` for numerics, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    age = np.clip(rng.normal(38.6, 13.6, n_rows).round(), 17, 90).astype(np.int64)
    education = _pick(rng, EDUCATION, n_rows)
    # Marital status follows age; occupation leans on education, so
    # distinct l-diversity on occupation binds in some groups.
    married_p = np.clip((age - 20) / 30.0, 0.05, 0.7)
    marital = np.where(rng.random(n_rows) < married_p, 1,
                       rng.choice([0, 2, 3, 4], size=n_rows, p=[0.7, 0.18, 0.06, 0.06]))
    skilled = education >= 6
    occupation = np.where(
        rng.random(n_rows) < 0.5,
        np.where(skilled, rng.choice([0, 3, 4, 5, 8], size=n_rows),
                 rng.choice([1, 2, 6, 7, 9, 10, 11], size=n_rows)),
        rng.integers(0, len(OCCUPATION), size=n_rows),
    )
    sex = _pick(rng, SEX, n_rows)
    hours = np.clip(rng.normal(40 + 3 * sex, 12, n_rows).round(), 1, 99).astype(np.int64)
    gain = np.where(rng.random(n_rows) < 0.08,
                    rng.integers(1, 200, size=n_rows) * 100, 0).astype(np.int64)
    score = 0.35 * (education - 4) + 0.03 * (age - 38) + 0.04 * (hours - 40) - 1.2
    salary = (rng.random(n_rows) < 1 / (1 + np.exp(-score))).astype(np.int64)
    return {
        "workclass": (_pick(rng, WORKCLASS, n_rows), WORKCLASS[0]),
        "education": (education, EDUCATION[0]),
        "marital_status": (marital, MARITAL),
        "occupation": (occupation, OCCUPATION),
        "race": (_pick(rng, RACE, n_rows), RACE[0]),
        "sex": (sex, SEX[0]),
        "native_country": (_pick(rng, COUNTRY, n_rows), COUNTRY[0]),
        "salary": (salary, SALARY),
        "age": age,
        "education_num": np.asarray(EDUCATION_YEARS)[education],
        "hours_per_week": hours,
        "capital_gain": gain,
    }


def adult_csv(n_rows: int, seed: int) -> str:
    """The same columns rendered as CSV text with a header row."""
    columns = adult_columns(n_rows, seed)
    rendered = []
    for name in HEADER:
        value = columns[name]
        if isinstance(value, tuple):
            codes, categories = value
            rendered.append(np.asarray(categories, dtype=object)[codes])
        else:
            rendered.append(value.astype(str))
    lines = [",".join(HEADER)]
    lines.extend(",".join(row) for row in zip(*rendered))
    return "\n".join(lines) + "\n"
