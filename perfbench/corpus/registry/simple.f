
program simple
  input integer :: imax = 14, jmax = 14, cycles = 6
  integer :: i, j, c
  real :: rho(16, 16), p(16, 16), e(16, 16), ux(16, 16), uy(16, 16)
  real :: total
  do i = 1, imax
    do j = 1, jmax
      rho(i, j) = 1.0 + real(i) * 0.01
      p(i, j) = 1.0
      e(i, j) = 2.5
      ux(i, j) = 0.0
      uy(i, j) = 0.0
    end do
  end do
  do c = 1, cycles
    call hydro(imax, jmax, rho, p, e, ux, uy)
    call energy(imax, jmax, p, e)
  end do
  total = 0.0
  do i = 1, imax
    do j = 1, jmax
      total = total + e(i, j) * rho(i, j)
    end do
  end do
  print total
end program

subroutine hydro(imax, jmax, rho, p, e, ux, uy)
  integer :: imax, jmax, i, j
  real :: rho(16, 16), p(16, 16), e(16, 16), ux(16, 16), uy(16, 16)
  real :: q
  do i = 1, imax
    do j = 1, jmax
      q = p(i, j) / rho(i, j)
      ux(i, j) = ux(i, j) * 0.99 + q * 0.01
      uy(i, j) = uy(i, j) * 0.99 - q * 0.01
      rho(i, j) = rho(i, j) * 0.999
      e(i, j) = e(i, j) + ux(i, j) * uy(i, j) * 0.001
      p(i, j) = rho(i, j) * e(i, j) * 0.4
    end do
  end do
end subroutine

subroutine energy(imax, jmax, p, e)
  integer :: imax, jmax, i, j
  real :: p(16, 16), e(16, 16)
  do i = 1, imax
    do j = 2, jmax
      e(i, j) = e(i, j) + p(i, j - 1) * 0.0005
    end do
  end do
end subroutine
