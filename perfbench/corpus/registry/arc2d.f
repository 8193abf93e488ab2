
program arc2d
  input integer :: jmax = 18, kmax = 16, nsteps = 5
  integer :: j, k, t
  real :: q(20, 20), qn(20, 20), rsd(20, 20), p(20, 20)
  real :: err
  do j = 1, jmax
    do k = 1, kmax
      q(j, k) = real(j + k) * 0.1
      qn(j, k) = 0.0
      p(j, k) = 1.0
      rsd(j, k) = 0.0
    end do
  end do
  do t = 1, nsteps
    call xsweep(jmax, kmax, q, qn, p)
    call ysweep(jmax, kmax, q, qn, rsd)
  end do
  err = 0.0
  do j = 1, jmax
    do k = 1, kmax
      err = err + rsd(j, k) * rsd(j, k) + qn(j, k)
    end do
  end do
  print err
end program

subroutine xsweep(jmax, kmax, q, qn, p)
  integer :: jmax, kmax, j, k
  real :: q(20, 20), qn(20, 20), p(20, 20)
  do j = 2, jmax
    do k = 1, kmax
      qn(j, k) = q(j, k) * 0.5 + q(j - 1, k) * 0.25 + p(j, k) * 0.2
      p(j, k) = p(j, k) * 0.995
    end do
  end do
end subroutine

subroutine ysweep(jmax, kmax, q, qn, rsd)
  integer :: jmax, kmax, j, k
  real :: q(20, 20), qn(20, 20), rsd(20, 20)
  do j = 1, jmax
    do k = 2, kmax
      rsd(j, k) = qn(j, k) - qn(j, k - 1) * 0.5
      q(j, k) = q(j, k) + rsd(j, k) * 0.1
    end do
  end do
end subroutine
