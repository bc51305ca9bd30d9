"""Analog feedback control over wireless channels: design, allocation, simulation.

The package covers one scalar unstable plant per sensor-controller-actuator
loop, closed over a fading channel without any source or channel coding: the
sensor scales its reading, the channel scales and perturbs it, the actuator
scales it back.  Closed forms pick the two scale factors under a transmit
power budget, allocation routines split one budget across several plants, and
vectorised Monte-Carlo recipes reproduce every design figure from first
principles.  A coded transmit-then-correct baseline (shortened BCH over square
QAM) is included for comparison.
"""

__version__ = "0.1.0"
