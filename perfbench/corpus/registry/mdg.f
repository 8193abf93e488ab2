
program mdg
  input integer :: nmol = 56, steps = 9
  integer :: i, t
  real :: r(80), vel(80), acc(80), pot(80)
  real :: energy
  do i = 1, nmol
    r(i) = real(i) * 0.3
    vel(i) = 0.0
    acc(i) = 0.0
    pot(i) = 0.0
  end do
  do t = 1, steps
    call pairs(nmol, r, acc, pot)
    call step(nmol, r, vel, acc)
  end do
  energy = 0.0
  do i = 1, nmol
    energy = energy + pot(i) + vel(i) * vel(i)
  end do
  print energy
end program

subroutine pairs(nmol, r, acc, pot)
  integer :: nmol, i
  real :: r(80), acc(80), pot(80)
  real :: d1, d2
  do i = 1, nmol - 2
    d1 = r(i + 2) - r(i)
    d2 = r(i + 1) - r(i)
    acc(i) = acc(i) * 0.5 + d1 * 0.1 + d2 * 0.2
    pot(i) = pot(i) + d1 * d1 + d2 * d2
  end do
end subroutine

subroutine step(nmol, r, vel, acc)
  integer :: nmol, i
  real :: r(80), vel(80), acc(80)
  do i = 1, nmol
    vel(i) = vel(i) + acc(i) * 0.002
    r(i) = r(i) + vel(i) * 0.002
    acc(i) = 0.0
  end do
end subroutine
